// Telecom: the motivating scenario of the paper's introduction — a
// telecommunication network of line cards and a shared switch, each peer
// modeled by a Petri net, alarms reported asynchronously to a single
// supervisor who must reconstruct what happened.
//
// A line card failure congests the switch; the switch raises an overload
// alarm; the card is reset. The supervisor sees the three alarms in an
// arbitrary cross-peer order and recovers the causal explanation with
// dQSQ.
//
// Run with: go run ./examples/telecom
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/alarm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/petri"
)

func main() {
	const lines = 3
	pn := gen.Telecom(lines)
	sys, err := core.NewSystem(pn, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Telecom network: %d line-card peers + 1 switch peer\n", lines)

	// Simulate the fault: line 1 fails, switch overloads, line 1 resets.
	// The supervisor's channel scrambles cross-peer order (per-peer order
	// is preserved — the asynchronous model of Section 2). The seed is
	// fixed so that every run shows the same interleaving.
	rng := rand.New(rand.NewSource(1))
	perPeer := map[petri.Peer][]petri.Alarm{
		"line1":  {"fail", "reset"},
		"switch": {"overload"},
	}
	seq := petri.Interleave(rng, perPeer)
	fmt.Printf("Supervisor observed: %v\n\n", alarm.Seq(seq))

	rep, err := sys.Diagnose(seq, core.DQSQ, core.Options{Timeout: time.Minute})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dQSQ found %d explanation(s) (%d unfolding events materialized):\n",
		len(rep.Diagnoses), rep.TransFacts)
	for i, cfg := range rep.Diagnoses {
		fmt.Printf("  explanation %d:\n", i+1)
		for _, ev := range cfg {
			fmt.Printf("    %s\n", ev)
		}
	}

	// Cross-check against the ground-truth search.
	direct, err := sys.Diagnose(seq, core.Direct, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if rep.Diagnoses.Equal(direct.Diagnoses) {
		fmt.Println("\ndQSQ agrees with the direct search — Theorem 3 live.")
	} else {
		log.Fatal("engines disagree!")
	}

	// Which line failed? Every explanation blames line1's fail transition.
	fmt.Println("\nRoot cause: the fail event of peer line1 appears in every explanation,")
	fmt.Println("causally before the switch overload — the supervisor can page the right team.")
}
