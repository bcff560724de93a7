// Command gencorpus regenerates the checked-in fuzz seed corpus under
// internal/wire/testdata/fuzz: one file per frame shape added since protocol v4, in
// the `go test fuzz v1` encoding, shared by both wire fuzz targets.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/wire"
)

func main() {
	seeds := map[string]wire.Frame{
		"hello_v4_wallclock": wire.Hello{
			Version: wire.Version, Node: "m1", Boot: 3,
			WallMicros: 1_700_000_000_000_000,
		},
		"hello_v8_port": wire.Hello{
			Version: wire.Version, Node: "drv", Boot: 4,
			WallMicros: 1_700_000_000_000_000, Port: 7401,
		},
		"data_flow_id": wire.Data{
			Gen: 2, Flow: 1 << 40, From: "p1", To: "p2",
			Payload: wire.Activate{Rel: "conf@p2"},
		},
		"job_trace_context": wire.Job{
			Gen: 4, NetText: "place p [a b]\n", Alarms: "a@p\n",
			Engine: 1, TimeoutMS: 30000,
			Trace: true, TraceID: 0xDEAD_BEEF_CAFE, ParentSpan: 99,
			Hosted: []string{"p"}, Peers: []wire.Assign{{Key: "p", Val: "m0"}},
			Nodes: []wire.Assign{{Key: "m0", Val: ":0"}}, Driver: "drv",
		},
		"telemetry_sample": wire.Telemetry{
			Gen: 3, Node: "m1", TraceID: 0xDEAD_BEEF_CAFE,
			WallMicros: 1_700_000_000_000_042, Dropped: 2,
			Counters: []wire.KV{{Key: "derived", Val: 512}},
			Gauges:   []wire.KV{{Key: "go_goroutines", Val: 12}},
			Events: []wire.TraceEvent{
				{Track: "p1", Name: "handle", Ph: 'X', Wall: 1_700_000_000_000_001, Dur: 37},
				{Track: "net", Name: "pending", Ph: 'C', Wall: 1_700_000_000_000_002, Value: -4},
				{Track: "p1", Name: "msg", Ph: 'f', Wall: 1_700_000_000_000_003, ID: 1 << 40},
			},
		},
	}
	for _, target := range []string{"FuzzDecodeFrame", "FuzzFrameRoundTrip"} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		for name, fr := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", wire.AppendFrame(nil, 1, fr))
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
}
