package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// rendezvous is the highest-random-weight hash of (fingerprint,
// instance): every router ranks instances for a fingerprint identically
// with no shared state, and removing an instance only remaps the jobs
// that were on it — the consistent-hashing property that keeps memo
// affinity stable across fleet changes.
func rendezvous(fp uint64, name string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], fp)
	h.Write(b[:])
	h.Write([]byte(name))
	return h.Sum64()
}

// pick selects the best routable instance for a job fingerprint, or nil
// when none qualifies. Scoring blends three normalized signals:
//
//   - affinity: the candidate's rendezvous rank for this fingerprint,
//     scaled to [1/n, 1] with the consistent-hash winner at 1. When the
//     affinity target's breaker is open or it is draining/ejected it is
//     simply absent from the candidate set, so the job degrades
//     gracefully to the next-ranked healthy instance.
//   - queue: 1/(1+queued+running) from the last /readyz probe.
//   - in-flight: 1/(1+inflight) from the router's own live counter.
//
// They blend 3:2:1. Affinity dominates (duplicate jobs should land
// where the memo already holds the answer); queue depth and in-flight
// load break the instance out of a hot spot when the affinity target is
// saturated. Ties break on instance name so placement is deterministic.
func pick(candidates []*instance, fp uint64) *instance {
	if len(candidates) == 0 {
		return nil
	}
	ranked := append([]*instance(nil), candidates...)
	sort.Slice(ranked, func(i, k int) bool {
		ri, rk := rendezvous(fp, ranked[i].name), rendezvous(fp, ranked[k].name)
		if ri != rk {
			return ri > rk
		}
		return ranked[i].name < ranked[k].name
	})
	var best *instance
	var bestScore float64
	n := float64(len(ranked))
	for rank, in := range ranked {
		queued, flight := in.load()
		score := 3*(n-float64(rank))/n +
			2/float64(1+queued) +
			1/float64(1+flight)
		if best == nil || score > bestScore ||
			(score == bestScore && in.name < best.name) {
			best, bestScore = in, score
		}
	}
	return best
}
