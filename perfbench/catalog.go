package main

import (
	"reflect"

	"tradingfences/internal/serve"
)

// Pinned answers of catalog jobs.
const (
	proved   = "proved"   // complete, violation-free proof
	violated = "violated" // violation found
	bounded  = "bounded"  // reorder-bounded graph exhausted, violation-free
	frontier = "frontier" // synthesis complete with the pinned minimal placements
)

// catalogJob is one request identity the serve probe submits, with its
// known answer. Solo costs on a 2-vCPU Xeon range from about 3 ms (n = 2
// checks) to about 0.55 s (tournament n = 3 under SC).
type catalogJob struct {
	req     serve.Request
	want    string
	minimal [][]int // frontier jobs only
	slow    bool    // a solo cost of 0.3 s or more; spaced evenly in the traffic
}

// chk, rmeJob and synthJob build catalog jobs. Every job runs at one
// engine worker (Workers is a run parameter, not part of the identity), so
// the daemon's Pool of 2 keeps at most 2 exploring goroutines busy on the
// 2 vCPUs the benchmark is sized for.
func chk(lock string, n int, model, want string, opt ...func(*serve.Request)) catalogJob {
	j := catalogJob{req: serve.Request{Op: serve.OpCheck, Lock: lock, N: n, Model: model, Workers: 1}, want: want}
	for _, o := range opt {
		o(&j.req)
	}
	return j
}

func rmeJob(lock string, n int, model, want string) catalogJob {
	return catalogJob{req: serve.Request{Op: serve.OpRME, Lock: lock, N: n, Model: model, MaxCrashes: 1, Workers: 1}, want: want}
}

func synthJob(lock string, n int, model string, minimal ...[]int) catalogJob {
	return catalogJob{req: serve.Request{Op: serve.OpSynth, Lock: lock, N: n, Model: model, Workers: 1}, want: frontier, minimal: minimal}
}

func por(r *serve.Request)      { r.POR = true }
func reorder1(r *serve.Request) { r.ReorderBound = 1 }
func crash1(r *serve.Request)   { r.MaxCrashes = 1 }

// checksN2 are the n = 2 mutex checks: every model, with POR,
// reorder-bound and crash variants, each a few milliseconds.
var checksN2 = []catalogJob{
	chk("peterson", 2, "sc", proved),
	chk("peterson", 2, "tso", proved),
	chk("peterson", 2, "pso", proved),
	chk("peterson-tso", 2, "sc", proved),
	chk("peterson-tso", 2, "tso", proved),
	chk("peterson-tso", 2, "pso", violated),
	chk("peterson-nofence", 2, "sc", proved),
	chk("peterson-nofence", 2, "tso", violated),
	chk("peterson-nofence", 2, "pso", violated),
	chk("bakery", 2, "sc", proved),
	chk("bakery", 2, "tso", proved),
	chk("bakery", 2, "pso", proved),
	chk("bakery-tso", 2, "pso", violated),
	chk("bakery-nofence", 2, "tso", violated),
	chk("bakery-literal", 2, "sc", violated),
	chk("gt1", 2, "pso", proved),
	chk("filter", 2, "pso", proved),
	chk("peterson", 2, "pso", proved, por),
	chk("peterson-tso", 2, "pso", violated, por),
	chk("bakery", 2, "pso", proved, por),
	chk("bakery-nofence", 2, "tso", violated, por),
	chk("peterson", 2, "pso", bounded, reorder1),
	chk("peterson-tso", 2, "pso", violated, reorder1),
	chk("bakery", 2, "pso", bounded, reorder1),
	chk("bakery-nofence", 2, "pso", violated, reorder1),
	chk("peterson", 2, "pso", proved, crash1),
	chk("peterson-tso", 2, "pso", violated, crash1),
	chk("bakery", 2, "pso", proved, crash1),
	chk("bakery-nofence", 2, "pso", violated, crash1),
}

// slow marks the jobs as the traffic's slow identities.
func slow(jobs ...catalogJob) []catalogJob {
	out := make([]catalogJob, len(jobs))
	for i, j := range jobs {
		j.slow = true
		out[i] = j
	}
	return out
}

// withSymmetry returns the jobs again with process-symmetry reduction on:
// a distinct identity with the same verdict.
func withSymmetry(jobs []catalogJob) []catalogJob {
	out := make([]catalogJob, len(jobs))
	for i, j := range jobs {
		j.req.Symmetry = true
		out[i] = j
	}
	return out
}

func concat(lists ...[]catalogJob) []catalogJob {
	var out []catalogJob
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// serveCatalog is the catalog of the serve probe: the n = 2 checks with
// and without symmetry reduction, RME checks, n = 2 syntheses, three
// n = 3 checks that find a violation quickly, and four slow n = 3 proofs
// that make the latency tail.
var serveCatalog = concat(checksN2, withSymmetry(checksN2), slowN3, withSymmetry(slowN3), []catalogJob{
	rmeJob("rtas", 2, "sc", proved),
	rmeJob("rtas-unsafe", 2, "sc", violated),
	rmeJob("rtas-unsafe", 2, "pso", violated),
	rmeJob("rbakery", 2, "pso", proved),
	rmeJob("rtournament", 2, "tso", proved),
	synthJob("peterson", 2, "pso", []int{0, 1}),
	synthJob("peterson", 2, "tso", []int{1}),
	synthJob("bakery", 2, "pso", []int{0, 1}),
	synthJob("bakery", 2, "tso", []int{0, 1}, []int{0, 2}),
	chk("bakery-tso", 3, "pso", violated),
	chk("bakery-nofence", 3, "tso", violated),
	chk("bakery-tso", 3, "pso", violated, reorder1),
})

var slowN3 = slow(
	chk("bakery-nofence", 3, "sc", proved),
	chk("tournament", 3, "sc", proved),
)

// answered reports whether a job's result is the pinned answer.
func (j catalogJob) answered(res *serve.Result) bool {
	if res == nil {
		return false
	}
	switch j.want {
	case frontier:
		if res.Synth == nil || !res.Synth.Complete {
			return false
		}
		var got [][]int
		for _, p := range res.Synth.Minimal {
			got = append(got, p.Sites)
		}
		return reflect.DeepEqual(got, j.minimal)
	case violated:
		return res.Check != nil && res.Check.Violated
	case proved:
		return res.Check != nil && res.Check.Proved && !res.Check.Violated
	case bounded:
		return res.Check != nil && res.Check.BoundedComplete && !res.Check.Violated
	}
	return false
}
