package wire

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/rel"
	"repro/internal/term"
)

// sampleExtern builds the extern of f(g(X,c),c), X — a tuple with shared
// structure (c appears twice, encoded once).
func sampleExtern(t *testing.T) term.Extern {
	t.Helper()
	s := term.NewStore()
	c := s.Constant("c")
	x := s.Variable("X")
	f := s.Compound("f", s.Compound("g", x, c), c)
	return s.ExternalizeTuple([]term.ID{f, x})
}

func sampleFrames(t *testing.T) []Frame {
	t.Helper()
	e := sampleExtern(t)
	atom := func(name, peer string) Atom { return Atom{Rel: rel.Name(name), Peer: peer, Args: e} }
	return []Frame{
		Hello{Version: Version, Node: "m0", LastSeq: 41},
		Hello{Version: Version, Node: "m1", Boot: 7, WallMicros: 1_720_000_000_000_017},
		Hello{Version: Version, Node: "drv", Boot: 2, WallMicros: 1_720_000_000_000_018, Port: 7401},
		Ack{Seq: 1 << 40},
		Data{Gen: 4, From: "p1", To: "p2", Payload: Activate{Rel: "conf@p2"}},
		Data{Gen: 4, Flow: 0xAB00_0000_0042, From: "p1", To: "p2", Payload: Activate{Rel: "conf@p2"}},
		Data{From: "p2", To: "p1", Payload: Facts{Qual: "conf@p2", Arity: 2, Tuple: e}},
		Data{Gen: 1 << 33, From: "drv", To: "p1", Payload: Inject{Rel: "obs", Tuple: e}},
		Data{From: "drv", To: "p1", Payload: Install{Rule: Rule{
			Head: atom("h", "p1"),
			Body: []Atom{atom("b1", "p1"), atom("b2", "p2")},
			NeqX: e, NeqY: e,
		}}},
		Job{
			Gen:     3,
			NetText: "place p [a b]\n", Alarms: "a@p\n",
			Engine: 2, MaxDepth: 13, MaxFacts: 100000, TimeoutMS: 30000,
			Hosted: []string{"p1", "p2"},
			Peers:  []Assign{{"p1", "m0"}, {"p2", "m1"}},
			Nodes:  []Assign{{"m0", "127.0.0.1:1"}, {"m1", "127.0.0.1:2"}},
			Driver: "drv",
		},
		Job{
			Gen:     4,
			NetText: "place p [a b]\n", Alarms: "a@p\n",
			Engine: 1, TimeoutMS: 30000,
			Trace:  true,
			Hosted: []string{"p1"},
			Peers:  []Assign{{"p1", "m0"}},
			Nodes:  []Assign{{"m0", "127.0.0.1:1"}},
			Driver: "drv",
		},
		JobOK{Gen: 3, Node: "m0"},
		JobOK{Node: "m1", Err: "parse: boom"},
		Poll{Gen: 3, Epoch: 7},
		Status{Gen: 3, Epoch: 7, Sent: 120, Processed: 120, Idle: true},
		Status{}, // unsolicited idle kick
		Stop{Gen: 3},
		Stop{Err: "budget exhausted"},
		Done{
			Gen:       3,
			Sent:      99,
			Processed: []PeerCount{{"p1", 50}, {"p2", 49}},
			ByPair:    []PairCount{{"p1", "p2", 30}, {"p2", "p1", 20}},
			BytesSent: []PairCount{{"p1", "p2", 4096}},
			Extras:    []KV{{"derived", 512}, {"replicated", 30}},
		},
		Done{Err: "timeout"},
		Telemetry{Gen: 3, Node: "m0"},
		Telemetry{
			Gen: 3, Node: "m1", Dropped: 2,
			Events: []TraceEvent{
				{Track: "p1", Name: "handle", Ph: 'X', Wall: 1_720_000_000_000_001, Dur: 37},
				{Track: "p1", Name: "rule installed", Ph: 'i', Wall: 1_720_000_000_000_002},
				{Track: "net", Name: "facts_pending", Ph: 'C', Wall: 1_720_000_000_000_003, Value: -4},
				{Track: "p2", Name: "msg", Ph: 's', Wall: 1_720_000_000_000_004, ID: 0xAB00_0000_0042},
				{Track: "p1", Name: "msg", Ph: 'f', Wall: 1_720_000_000_000_005, ID: 0xAB00_0000_0042},
			},
		},
		SessionJob{Req: 11, Op: SessCreate, Session: "s000001-ab",
			NetText: "place p [a b]\n", Engine: "naive", MaxFacts: 1 << 20, TimeoutMS: 30000,
			Frontend: "fe-1"},
		SessionJob{Req: 12, Op: SessAppend, Session: "s000001-ab", Index: 4,
			Alarms: "a@p b@p", TimeoutMS: 5000, Frontend: "fe-1"},
		SessionJob{Req: 13, Op: SessPing, Frontend: "fe-1"},
		SessionJob{Req: 14, Op: SessReplay, Session: "s000001-ab", Index: 16,
			Blob: []byte{0xDE, 0xAD, 0xBE, 0xEF}, Frontend: "fe-1"},
		SessionJob{Req: 15, Op: SessShip, Session: "s000001-ab", Frontend: "fe-1"},
		SessionReply{Req: 12, Active: 17, Queued: 3, Blob: []byte{1, 0, 2}},
		SessionReply{Req: 14, Code: SessSaturated, Err: "serve: server overloaded", RetryAfterMS: 1500},
		ReplPull{Nonce: 9, Last: 41, CRC: 0xcafef00d, Epoch: 3, WaitMS: 500},
		ReplBatch{Nonce: 9, Epoch: 3, Start: 42, Last: 43, Records: [][]byte{[]byte("create"), []byte("append")}},
		ReplBatch{Nonce: 10, Epoch: 3, Wipe: true, Start: 7, Last: 6},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for i, f := range sampleFrames(t) {
		enc := AppendFrame(nil, uint64(i)*3, f)
		seq, got, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("frame %d (%T): decode: %v", i, f, err)
		}
		if seq != uint64(i)*3 {
			t.Fatalf("frame %d: seq %d, want %d", i, seq, uint64(i)*3)
		}
		if !reflect.DeepEqual(normalize(got), normalize(f)) {
			t.Errorf("frame %d (%T): round trip mismatch\n got %#v\nwant %#v", i, f, got, f)
		}
	}
}

// normalize maps empty slices to nil so DeepEqual compares decoded frames
// (which leave absent collections nil) against literals.
func normalize(f Frame) Frame {
	rv := reflect.ValueOf(&f).Elem()
	normalizeValue(rv.Elem())
	return f
}

func normalizeValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Interface:
		if v.IsNil() {
			return
		}
		inner := reflect.New(v.Elem().Type()).Elem()
		inner.Set(v.Elem())
		normalizeValue(inner)
		if v.CanSet() {
			v.Set(inner)
		}
	case reflect.Ptr:
		if !v.IsNil() {
			normalizeValue(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				normalizeValue(v.Field(i))
			}
		}
	case reflect.Slice:
		if v.Len() == 0 {
			if v.CanSet() {
				v.Set(reflect.Zero(v.Type()))
			}
			return
		}
		for i := 0; i < v.Len(); i++ {
			normalizeValue(v.Index(i))
		}
	}
}

// TestPayloadSizeExact pins PayloadSize to the encoder: the runtime's
// byte counters charge PayloadSize without encoding, so the two must
// agree to the byte.
func TestPayloadSizeExact(t *testing.T) {
	e := sampleExtern(t)
	payloads := []Payload{
		Activate{Rel: "conf@p2"},
		Facts{Qual: "conf@p2", Arity: 2, Tuple: e},
		Facts{Qual: "n", Arity: 0},
		Inject{Rel: "obs", Tuple: e},
		Install{Rule: Rule{
			Head: Atom{Rel: "h", Peer: "p1", Args: e},
			Body: []Atom{{Rel: "b", Peer: "p2", Args: e}},
			NeqX: e, NeqY: e,
		}},
	}
	for _, p := range payloads {
		enc := AppendPayload(nil, p)
		size, ok := PayloadSize(p)
		if !ok {
			t.Fatalf("%T: PayloadSize not ok", p)
		}
		if size != len(enc) {
			t.Errorf("%T: PayloadSize %d, encoded %d bytes", p, size, len(enc))
		}
	}
	if _, ok := PayloadSize(struct{}{}); ok {
		t.Error("PayloadSize accepted a non-wire payload")
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	good := AppendFrame(nil, 5, Data{From: "a", To: "b", Payload: Activate{Rel: "r"}})
	cases := map[string][]byte{
		"empty":        {},
		"truncated":    good[:len(good)-2],
		"trailing":     append(append([]byte{}, good...), 0),
		"bad tag":      {0, 0xFF},
		"huge string":  {0, tagStop, 0xFF, 0xFF, 0xFF, 0x7F},
		"forward ref":  AppendFrame(nil, 0, Data{From: "a", To: "b", Payload: Inject{Rel: "r", Tuple: term.Extern{Nodes: []term.ExternNode{{Kind: term.Comp, Name: "f", Args: []int32{0}}}, Roots: []int32{0}}}}),
		"bad root":     AppendFrame(nil, 0, Data{From: "a", To: "b", Payload: Inject{Rel: "r", Tuple: term.Extern{Roots: []int32{3}}}}),
		"zeroary comp": AppendFrame(nil, 0, Data{From: "a", To: "b", Payload: Inject{Rel: "r", Tuple: term.Extern{Nodes: []term.ExternNode{{Kind: term.Comp, Name: "f"}}, Roots: []int32{0}}}}),
	}
	for name, b := range cases {
		if _, _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestDecodedExternInternalizes proves the decoder's validation is at
// least as strict as term.InternalizeTuple's panics: any Facts tuple that
// survives DecodeFrame must internalize cleanly.
func TestDecodedExternInternalizes(t *testing.T) {
	enc := AppendFrame(nil, 1, Data{From: "p1", To: "p2",
		Payload: Facts{Qual: "r@p1", Arity: 2, Tuple: sampleExtern(t)}})
	_, f, err := DecodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	facts := f.(Data).Payload.(Facts)
	s := term.NewStore()
	ids := s.InternalizeTuple(facts.Tuple)
	if len(ids) != 2 {
		t.Fatalf("internalized %d roots, want 2", len(ids))
	}
	if got := s.String(ids[0]) + ", " + s.String(ids[1]); got != "f(g(X,c),c), X" {
		t.Fatalf("internalized tuple = %q", got)
	}
}

// randomTerm builds a random term over a small vocabulary, so random tuples
// share structure.
func randomTerm(s *term.Store, r *rand.Rand, depth int) term.ID {
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return s.Constant(string(rune('a' + r.Intn(4))))
		}
		return s.Variable(string(rune('X' + r.Intn(3))))
	}
	args := make([]term.ID, 1+r.Intn(3))
	for i := range args {
		args[i] = randomTerm(s, r, depth-1)
	}
	return s.Compound(string(rune('f'+r.Intn(2))), args...)
}

// TestFactsSizeMatchesTheEncoder: FactsSize, which never builds the payload,
// reports the size of the payload ExternalizeTuple and the encoder would
// have built — for 1 000 random tuples, the empty tuple and a 641-node DAG,
// far past what the walk indexes in its own frame — and allocates nothing
// for a DAG that fits it.
func TestFactsSizeMatchesTheEncoder(t *testing.T) {
	s := term.NewStore()
	r := rand.New(rand.NewSource(1))
	tuples := [][]term.ID{nil, {}}
	for i := 0; i < 1000; i++ {
		tuple := make([]term.ID, r.Intn(6))
		for j := range tuple {
			tuple[j] = randomTerm(s, r, 4)
		}
		tuples = append(tuples, tuple)
	}
	deep := s.Constant("a")
	for i := 0; i < 640; i++ {
		deep = s.Compound("d", deep, deep)
	}
	tuples = append(tuples, []term.ID{deep, s.Constant("a")})
	if n := len(s.ExternalizeTuple(tuples[len(tuples)-1]).Nodes); n != 641 {
		t.Fatalf("deep DAG has %d nodes, want 641", n)
	}

	for i, tuple := range tuples {
		e := s.ExternalizeTuple(tuple)
		want, _ := PayloadSize(Facts{Qual: "conf@p2", Arity: len(tuple), Tuple: e})
		if got := FactsSize(s, "conf@p2", tuple); got != want || want != len(AppendPayload(nil, Facts{Qual: "conf@p2", Arity: len(tuple), Tuple: e})) {
			t.Fatalf("tuple %d: FactsSize %d, PayloadSize %d", i, got, want)
		}
	}

	for _, tuple := range tuples[:len(tuples)-1] {
		if n := len(s.ExternalizeTuple(tuple).Nodes); n > 128 {
			t.Fatalf("random tuple of %d nodes: the allocation guard is for DAGs the walk indexes inline", n)
		}
		if allocs := testing.AllocsPerRun(10, func() { FactsSize(s, "conf@p2", tuple) }); allocs != 0 {
			t.Fatalf("FactsSize allocates %v times on %d columns", allocs, len(tuple))
		}
	}
}
