package diagnosis

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/snapshot"
)

// statsNet is the default network of a round, keeping the round's stats
// for the test to read.
type statsNet struct {
	*dist.Network
	last *dist.Stats
}

func (n statsNet) Run(initial []dist.Message, timeout time.Duration) (dist.Stats, error) {
	stats, err := n.Network.Run(initial, timeout)
	*n.last = stats
	return stats, err
}

// TestSessionsAreDeterministic: an engine's peers take turns on one
// goroutine and share one store, so a session is a function of its net and
// its alarms, down to the bytes. A template built on the side has the
// cached template's fingerprint, and two sessions cloned from the cached
// template and a third cloned from the one on the side, fed the same alarms
// one by one, hold after every append the same tail past their template
// byte for byte, have sent the same number of messages and bytes on every
// channel, and host the same rules in the same order. Run it under -race
// -count=5: there is nothing left to interleave.
func TestSessionsAreDeterministic(t *testing.T) {
	for _, tc := range streamCases(0) {
		t.Run(tc.name, func(t *testing.T) {
			tmpl, err := newTemplate(tc.pn, 0)
			if err != nil {
				t.Fatal(err)
			}
			cached, _, err := cachedTemplate(tc.pn, 0)
			if err != nil {
				t.Fatal(err)
			}
			if tmpl.fingerprint != cached.fingerprint {
				t.Fatalf("two templates of one net: fingerprints %x and %x", tmpl.fingerprint, cached.fingerprint)
			}
			sessions := []*OnlineDiagnoser{tmpl.session(tc.pn, datalog.Budget{})}
			for len(sessions) < 3 {
				d, err := NewOnlineDiagnoser(tc.pn, datalog.Budget{})
				if err != nil {
					t.Fatal(err)
				}
				sessions = append(sessions, d)
			}
			stats := make([]dist.Stats, len(sessions))
			for i, d := range sessions {
				d.Session().Engine().SetNetFactory(func() dist.Net {
					return statsNet{dist.NewNetwork(), &stats[i]}
				})
			}
			tail := func(d *OnlineDiagnoser) []byte {
				var w snapshot.Writer
				if err := d.Session().EncodeSnapshot(&w); err != nil {
					t.Fatal(err)
				}
				return w.Body()
			}
			for n := range tc.seq {
				for i, d := range sessions {
					if _, err := d.Append(tc.seq[n:n+1], time.Minute); err != nil {
						t.Fatalf("append %d, session %d: %v", n+1, i, err)
					}
				}
				want, eng := tail(sessions[0]), sessions[0].Session().Engine()
				for i, d := range sessions[1:] {
					if !bytes.Equal(tail(d), want) {
						t.Fatalf("append %d: the tails of sessions 0 and %d differ", n+1, i+1)
					}
					if !reflect.DeepEqual(stats[i+1].MessagesByPair, stats[0].MessagesByPair) ||
						!reflect.DeepEqual(stats[i+1].BytesSentByPair, stats[0].BytesSentByPair) {
						t.Fatalf("append %d: sessions 0 and %d sent\n%v\n%v", n+1, i+1, stats[0].MessagesByPair, stats[i+1].MessagesByPair)
					}
					for _, id := range eng.Peers() {
						mine, theirs := eng.Rules(id), d.Session().Engine().Rules(id)
						if len(mine) != len(theirs) {
							t.Fatalf("append %d: peer %s hosts %d rules in session 0, %d in session %d", n+1, id, len(mine), len(theirs), i+1)
						}
						for ri := range mine {
							if !reflect.DeepEqual(mine[ri].Head, theirs[ri].Head) || !reflect.DeepEqual(mine[ri].Body, theirs[ri].Body) {
								t.Fatalf("append %d: rule %d of peer %s differs between sessions 0 and %d", n+1, ri, id, i+1)
							}
						}
					}
				}
			}
		})
	}
}
