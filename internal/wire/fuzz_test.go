package wire

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/term"
)

var update = flag.Bool("update", false, "rewrite the seed files under testdata/fuzz")

func smallExtern() term.Extern {
	s := term.NewStore()
	c := s.Constant("c")
	return s.ExternalizeTuple([]term.ID{s.Compound("f", s.Variable("X"), c), c})
}

// seedCorpus feeds every frame kind (and a few corrupt shapes) to both
// fuzzers, so even the -fuzztime smoke run exercises all decode paths.
func seedCorpus(f *testing.F) {
	frames := []Frame{
		Hello{Version: Version, Node: "m0", LastSeq: 9},
		Ack{Seq: 17},
		Data{From: "p1", To: "p2", Payload: Activate{Rel: "conf@p2"}},
		Data{From: "p1", To: "p2", Payload: Facts{Qual: "r@p1", Arity: 2, Tuple: smallExtern()}},
		Data{From: "drv", To: "p1", Payload: Inject{Rel: "obs", Tuple: smallExtern()}},
		Data{From: "drv", To: "p1", Payload: Install{Rule: Rule{
			Head: Atom{Rel: "h", Peer: "p1", Args: smallExtern()},
			Body: []Atom{{Rel: "b", Peer: "p2", Args: smallExtern()}},
		}}},
		Job{NetText: "place p [a]\n", Alarms: "a@p\n", Engine: 1,
			Hosted: []string{"p"}, Peers: []Assign{{"p", "m0"}},
			Nodes: []Assign{{"m0", ":0"}}, Driver: "drv"},
		JobOK{Node: "m0"},
		Poll{Epoch: 3},
		Status{Epoch: 3, Sent: 5, Processed: 5, Idle: true},
		Stop{Err: "x"},
		Done{Sent: 5, Processed: []PeerCount{{"p", 5}},
			ByPair: []PairCount{{"p", "q", 2}}, BytesSent: []PairCount{{"p", "q", 64}},
			Extras: []KV{{"derived", 3}}},
		Hello{Version: Version, Node: "m1", Boot: 3, WallMicros: 1_700_000_000_000_000},
		Hello{Version: Version, Node: "drv", Boot: 4, Port: 7401},
		Data{Gen: 2, Flow: 1 << 40, From: "p1", To: "p2", Payload: Activate{Rel: "r"}},
		Job{NetText: "place p [a]\n", Alarms: "a@p\n", Engine: 1,
			Trace:  true,
			Hosted: []string{"p"}, Peers: []Assign{{"p", "m0"}},
			Nodes: []Assign{{"m0", ":0"}}, Driver: "drv"},
		Telemetry{Gen: 2, Node: "m0", Dropped: 1,
			Events: []TraceEvent{
				{Track: "p", Name: "handle", Ph: 'X', Wall: 1_700_000_000_000_000, Dur: 9},
				{Track: "net", Name: "pending", Ph: 'C', Wall: 1_700_000_000_000_001, Value: -2},
				{Track: "p", Name: "msg", Ph: 'f', Wall: 1_700_000_000_000_002, ID: 1 << 40},
			}},
		SessionJob{Req: 7, Op: SessCreate, Session: "s1", NetText: "place p [a]\n",
			Engine: "naive", MaxFacts: 1 << 20, TimeoutMS: 30000,
			Frontend: "fe"},
		SessionJob{Req: 8, Op: SessAppend, Session: "s1", Index: 2, Alarms: "a@p",
			TimeoutMS: 30000, Frontend: "fe"},
		SessionJob{Req: 9, Op: SessReplay, Session: "s1", Index: 5, Blob: []byte{1, 2, 3},
			Frontend: "fe"},
		SessionReply{Req: 8, Active: 3, Queued: 1, Blob: []byte{9}},
		SessionReply{Req: 9, Code: SessSaturated, Err: "table full", RetryAfterMS: 1000},
		ReplPull{Nonce: 3, Last: 17, CRC: 0xdeadbeef, Epoch: 2, WaitMS: 500},
		ReplBatch{Nonce: 3, Epoch: 2, Start: 18, Last: 19, Records: [][]byte{{1, 2}, {3}}},
		ReplBatch{Nonce: 4, Epoch: 2, Wipe: true, Start: 5, Last: 4},
	}
	for i, fr := range frames {
		f.Add(AppendFrame(nil, uint64(i), fr))
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 0xFF})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, tagAck, 1})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
}

// FuzzDecodeFrame: the decoder is total — arbitrary bytes either decode
// or error, never panic, never over-allocate.
func FuzzDecodeFrame(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		seq, fr, err := DecodeFrame(b)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to an equivalent frame.
		enc := AppendFrame(nil, seq, fr)
		seq2, fr2, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if seq2 != seq || !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("re-encode not stable:\n first %#v\nsecond %#v", fr, fr2)
		}
		// Any Facts/Inject tuple that survives decoding must internalize
		// without panicking (the decoder re-checks the DAG invariants).
		if d, ok := fr.(Data); ok {
			s := term.NewStore()
			switch p := d.Payload.(type) {
			case Facts:
				s.InternalizeTuple(p.Tuple)
			case Inject:
				s.InternalizeTuple(p.Tuple)
			case Install:
				s.InternalizeTuple(p.Rule.Head.Args)
			}
		}
	})
}

// FuzzFrameRoundTrip drives the encoder from fuzzed field values and
// checks decode(encode(f)) == f.
func FuzzFrameRoundTrip(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		// Interpret the fuzz input as a decoded frame; if it doesn't
		// decode there is nothing to round-trip.
		seq, fr, err := DecodeFrame(b)
		if err != nil {
			return
		}
		enc := AppendFrame(nil, seq, fr)
		seq2, fr2, err := DecodeFrame(enc)
		if err != nil || seq2 != seq || !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("round trip: err=%v\n in  %#v\n out %#v", err, fr, fr2)
		}
		// PayloadSize must match the encoder byte-for-byte.
		if d, ok := fr.(Data); ok {
			want := len(AppendPayload(nil, d.Payload))
			if got, ok := PayloadSize(d.Payload); !ok || got != want {
				t.Fatalf("PayloadSize(%T) = %d/%v, encoder wrote %d", d.Payload, got, ok, want)
			}
		}
	})
}

// corpusSeeds are the checked-in seed files of both frame fuzzers under
// testdata/fuzz, one per frame shape added since protocol 4, by file name.
var corpusSeeds = map[string]Frame{
	"hello_v4_wallclock": Hello{Version: Version, Node: "m1", Boot: 3, WallMicros: 1_700_000_000_000_000},
	"hello_v8_port":      Hello{Version: Version, Node: "drv", Boot: 4, WallMicros: 1_700_000_000_000_000, Port: 7401},
	"data_flow_id":       Data{Gen: 2, Flow: 1 << 40, From: "p1", To: "p2", Payload: Activate{Rel: "conf@p2"}},
	"job_trace_context": Job{Gen: 4, NetText: "place p [a b]\n", Alarms: "a@p\n",
		Engine: 1, TimeoutMS: 30000, Trace: true,
		Hosted: []string{"p"}, Peers: []Assign{{"p", "m0"}},
		Nodes: []Assign{{"m0", ":0"}}, Driver: "drv"},
	"telemetry_sample": Telemetry{Gen: 3, Node: "m1", Dropped: 2,
		Events: []TraceEvent{
			{Track: "p1", Name: "handle", Ph: 'X', Wall: 1_700_000_000_000_001, Dur: 37},
			{Track: "net", Name: "pending", Ph: 'C', Wall: 1_700_000_000_000_002, Value: -4},
			{Track: "p1", Name: "msg", Ph: 'f', Wall: 1_700_000_000_000_003, ID: 1 << 40},
		}},
	"repl_pull":       ReplPull{Nonce: 7, Last: 17, CRC: 0xdeadbeef, Epoch: 2, WaitMS: 500},
	"repl_batch":      ReplBatch{Nonce: 7, Epoch: 2, Start: 18, Last: 20, Records: [][]byte{[]byte("rec-18"), []byte("rec-19")}},
	"repl_batch_wipe": ReplBatch{Nonce: 8, Epoch: 3, Wipe: true, Start: 12, Last: 11},
}

// TestFuzzCorpusIsCurrent: each fuzzer's seed directory holds exactly
// corpusSeeds as this codec encodes them, so a frame change cannot leave
// the seeds stale. -update rewrites the files.
func TestFuzzCorpusIsCurrent(t *testing.T) {
	for _, target := range []string{"FuzzDecodeFrame", "FuzzFrameRoundTrip"} {
		dir := filepath.Join("testdata", "fuzz", target)
		for name, fr := range corpusSeeds {
			path := filepath.Join(dir, name)
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", AppendFrame(nil, 1, fr))
			if *update {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%v; rerun with -update", err)
			} else if string(got) != want {
				t.Errorf("%s is not the current encoding of its seed; rerun with -update", path)
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if _, ok := corpusSeeds[e.Name()]; !ok {
				t.Errorf("%s holds %s, which is no corpus seed", dir, e.Name())
			}
		}
	}
}
