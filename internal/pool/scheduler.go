package pool

import "hash/fnv"

// WorkerLoad is the scheduler's view of one placeable worker: the load
// sample piggybacked on its last reply or probe.
type WorkerLoad struct {
	Name   string
	Active int // live sessions on the worker
	Queued int // jobs waiting in its queue
}

// leastLoaded picks the candidate with the fewest sessions plus queued
// jobs, breaking ties by name so placement is deterministic under equal
// load: simple, and self-correcting as load reports flow back on every
// reply. Candidates are never empty.
func leastLoaded(candidates []WorkerLoad) string {
	best := candidates[0]
	for _, c := range candidates[1:] {
		bl, cl := best.Active+best.Queued, c.Active+c.Queued
		if cl < bl || (cl == bl && c.Name < best.Name) {
			best = c
		}
	}
	return best.Name
}

// hash64 is FNV-1a with a murmur-style finalizer, which spreads
// near-identical strings (sequential session IDs) across executor
// shards.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never errors
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
