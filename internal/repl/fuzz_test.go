package repl

import (
	"bytes"
	"testing"

	"repro/internal/snapshot"
)

// FuzzDecodeFrame checks the frame parser is total: any body either
// decodes cleanly or errors, never panics, and every well-formed frame
// round-trips through the framing layer.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(encodeHello(17, 0xdeadbeef, 3))
	f.Add(encodeHello(0, 0, 1)) // a fresh follower: the primary answers with a wipe
	f.Add(encodeWelcome(4, true, 18))
	f.Add(encodeWelcome(4, false, 18))
	f.Add(encodeRecord(4, 20, []byte("payload")))
	f.Add(encodeRecord(4, 20, nil))
	f.Add(encodeHeartbeat(4, 21, 1700000000000000))
	f.Add(encodeAck(21))
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{kindRecord})
	f.Add([]byte{kindAck + 1}) // protocol 1 numbered its heartbeat 6; no kind now

	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := decodeFrame(body)
		if err != nil {
			return
		}
		if fr.kind < kindHello || fr.kind > kindAck {
			t.Fatalf("decoded unknown kind %d without error", fr.kind)
		}
		// A decodable body must survive the framing layer byte-for-byte.
		got, rest, err := snapshot.NextFrame(snapshot.AppendFrame(nil, body))
		if err != nil || len(rest) != 0 || !bytes.Equal(got, body) {
			t.Fatalf("frame round-trip mutated body: %q, %d trailing bytes, %v", got, len(rest), err)
		}
	})
}
