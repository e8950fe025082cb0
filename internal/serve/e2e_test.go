package serve

import (
	"strings"
	"testing"
	"time"
)

// End to end through the real FacadeRunner: a violation check (fenceless
// Peterson under TSO) refutes with a witness, a synthesis job recovers
// the known PSO frontier, and both results are authoritative — so
// duplicates of either are served from the cache without re-exploring.
func TestEndToEndFacadeRunner(t *testing.T) {
	cfg := testConfig(t, t.TempDir(), FacadeRunner{})
	cfg.Pool = 2
	cfg.DrainGrace = 5 * time.Second
	srv, hs := startServer(t, cfg)

	const violating = `{"op":"check","lock":"peterson-nofence","n":2,"model":"tso","workers":2}`
	_, vj, _ := submitJSON(t, hs.URL, violating)
	violated := waitStatus(t, hs.URL, vj.JobID, StatusDone)
	if !violated.Result.Authoritative || !violated.Result.Check.Violated {
		t.Fatalf("fenceless Peterson under TSO not refuted: %+v", violated.Result)
	}
	if violated.Result.Check.WitnessSchedule == "" {
		t.Fatal("violation without a witness schedule")
	}

	const synth = `{"op":"synth","lock":"peterson","n":2,"model":"pso"}`
	_, sj, _ := submitJSON(t, hs.URL, synth)
	synthed := waitStatus(t, hs.URL, sj.JobID, StatusDone)
	so := synthed.Result.Synth
	if so == nil || !so.Complete || !synthed.Result.Authoritative {
		t.Fatalf("synthesis frontier incomplete: %+v", synthed.Result)
	}
	if len(so.Minimal) != 1 || len(so.Minimal[0].Sites) != 2 {
		t.Fatalf("peterson PSO minimal placement: %+v", so.Minimal)
	}

	// Both verdicts now serve duplicates from the cache: same job IDs, no
	// second exploration (the states-explored meter stands still).
	states := srv.Metrics().StatesExplored.Load()
	for _, body := range []string{violating, synth} {
		code, sr, _ := submitJSON(t, hs.URL, body)
		if code != 200 || !sr.Cached || sr.Result == nil {
			t.Fatalf("duplicate not served from cache: code=%d resp=%+v", code, sr)
		}
	}
	if got := srv.Metrics().StatesExplored.Load(); got != states {
		t.Fatalf("cache hits explored states: %d -> %d", states, got)
	}
	srv.Drain()
}

// End to end for the rme op: a safe recoverable lock proves under a crash
// budget and reports passage watermarks; the unsafe negative control is
// refuted with a crash witness. Both are authoritative, so duplicates hit
// the cache.
func TestEndToEndRME(t *testing.T) {
	cfg := testConfig(t, t.TempDir(), FacadeRunner{})
	cfg.Pool = 2
	cfg.DrainGrace = 5 * time.Second
	srv, hs := startServer(t, cfg)

	const proving = `{"op":"rme","lock":"rtas","n":2,"model":"sc","max_crashes":1}`
	_, pj, _ := submitJSON(t, hs.URL, proving)
	proved := waitStatus(t, hs.URL, pj.JobID, StatusDone)
	co := proved.Result.Check
	if co == nil || !co.Proved || !proved.Result.Authoritative {
		t.Fatalf("rtas not proved under crashes: %+v", proved.Result)
	}
	if co.PassageCount == 0 || co.PassageMaxCC < 1 || co.PassageMaxDSM < 1 {
		t.Fatalf("rme verdict without passage watermarks: %+v", co)
	}

	const violating = `{"op":"rme","lock":"rtas-unsafe","n":2,"model":"sc","max_crashes":1}`
	_, vj, _ := submitJSON(t, hs.URL, violating)
	violated := waitStatus(t, hs.URL, vj.JobID, StatusDone)
	vo := violated.Result.Check
	if vo == nil || !vo.Violated || !violated.Result.Authoritative {
		t.Fatalf("rtas-unsafe not refuted: %+v", violated.Result)
	}
	if !strings.Contains(vo.WitnessSchedule, "!") {
		t.Fatalf("rme violation witness has no crash element: %q", vo.WitnessSchedule)
	}

	states := srv.Metrics().StatesExplored.Load()
	code, sr, _ := submitJSON(t, hs.URL, proving)
	if code != 200 || !sr.Cached || sr.Result == nil {
		t.Fatalf("rme duplicate not served from cache: code=%d resp=%+v", code, sr)
	}
	if got := srv.Metrics().StatesExplored.Load(); got != states {
		t.Fatalf("rme cache hit explored states: %d -> %d", states, got)
	}
	srv.Drain()
}

// A symmetry=true check keeps its own identity — the benchmark's serve
// catalog (perfbench/catalog.go) submits one as a fresh job and counts a
// dedup or cache hit on it as a failure — but runs the same unreduced
// exploration as the plain request, so both finish with equal outcomes:
// peterson n=2/PSO visits all 633 states either way.
func TestSymmetryRequestRunsUnreduced(t *testing.T) {
	plain := normalized(t, Request{Op: OpCheck, Lock: "peterson", N: 2, Model: "pso"})
	sym := normalized(t, Request{Op: OpCheck, Lock: "peterson", N: 2, Model: "pso", Symmetry: true})
	if plain.Key() == sym.Key() {
		t.Fatalf("symmetry flag left the identity: %s", sym.identity())
	}

	cfg := testConfig(t, t.TempDir(), FacadeRunner{})
	cfg.DrainGrace = 5 * time.Second
	srv, hs := startServer(t, cfg)
	var outs []CheckOutcome
	for _, body := range []string{
		`{"op":"check","lock":"peterson","n":2,"model":"pso"}`,
		`{"op":"check","lock":"peterson","n":2,"model":"pso","symmetry":true}`,
	} {
		code, sr, _ := submitJSON(t, hs.URL, body)
		if code != 202 || sr.Dedup || sr.Cached {
			t.Fatalf("%s: not accepted as a fresh job: code=%d resp=%+v", body, code, sr)
		}
		done := waitStatus(t, hs.URL, sr.JobID, StatusDone)
		if done.Result.Check == nil {
			t.Fatalf("%s: no check outcome: %+v", body, done.Result)
		}
		outs = append(outs, *done.Result.Check)
	}
	if outs[0] != outs[1] {
		t.Fatalf("symmetry=true outcome differs from the plain one:\n  %+v\n  %+v", outs[1], outs[0])
	}
	if !outs[1].Proved || outs[1].States != 633 {
		t.Fatalf("peterson n=2/PSO with symmetry=true: %+v, want proved at 633 states", outs[1])
	}
	srv.Drain()
}
