package tradingfences

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSynthesizeFencesPeterson is the acceptance path of the synthesis
// facade: stripped Peterson at n=2 under PSO with the exhaustive oracle
// recovers exactly the known minimal placement (a fence after each
// announce write), refutes the zero-fence placement with a witness that
// replays and certifies, and reports a complete frontier.
func TestSynthesizeFencesPeterson(t *testing.T) {
	res, err := SynthesizeFences(context.Background(), LockSpec{Kind: Peterson}, 2, PSO,
		SynthOptions{Oracle: OracleExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("expected complete frontier, verdict: %s", res.Verdict)
	}
	if !strings.HasPrefix(res.Verdict, "frontier complete") {
		t.Errorf("verdict = %q", res.Verdict)
	}
	if len(res.Sites) != 3 {
		t.Fatalf("peterson sites = %d, want 3", len(res.Sites))
	}
	if len(res.Minimal) != 1 {
		t.Fatalf("minimal placements = %+v, want exactly one", res.Minimal)
	}
	m := res.Minimal[0]
	if len(m.Sites) != 2 || m.Sites[0] != 0 || m.Sites[1] != 1 {
		t.Errorf("PSO minimal placement = %v, want [0 1] (a fence after each announce write)", m.Sites)
	}
	if !m.Certain {
		t.Error("minimal placement not certified")
	}
	if m.Fences != 2 {
		t.Errorf("minimal placement measures %d fences, want 2", m.Fences)
	}
	if m.Lock != "synth:peterson:0-1" {
		t.Errorf("placement lock name = %q", m.Lock)
	}
	if len(res.Frontier) != 1 || res.Frontier[0].Lock != m.Lock {
		t.Errorf("frontier = %+v, want just the minimal placement", res.Frontier)
	}

	// The zero-fence placement must be refuted with a replayable,
	// certifying witness artifact.
	var zero *SynthRefutation
	for i := range res.Refuted {
		if len(res.Refuted[i].Sites) == 0 {
			zero = &res.Refuted[i]
			break
		}
	}
	if zero == nil {
		t.Fatal("zero-fence placement not refuted")
	}
	if zero.Artifact == nil {
		t.Fatal("zero-fence refutation has no artifact")
	}
	if zero.Artifact.Lock != "synth:peterson:none" {
		t.Errorf("artifact lock = %q", zero.Artifact.Lock)
	}
	trace, err := ReplayWitness(zero.Artifact)
	if err != nil {
		t.Fatalf("zero-fence witness replay: %v", err)
	}
	if trace == "" {
		t.Error("empty replay trace")
	}
	// Every refutation — pruned ones included — replays.
	for _, ref := range res.Refuted {
		if _, err := ReplayWitness(ref.Artifact); err != nil {
			t.Errorf("refutation %v (pruned=%v) does not replay: %v", ref.Sites, ref.Pruned, err)
		}
	}
}

// TestSynthesizeFencesBakeryFrontier: the synthesized frontier for
// stripped Bakery at n=2 is Pareto-consistent with the measured GT curve
// at the same n — no hand-written GT_f point strictly dominates a
// synthesized point (the synthesizer found placements at least as good as
// the hand placement on this workload).
func TestSynthesizeFencesBakeryFrontier(t *testing.T) {
	res, err := SynthesizeFences(context.Background(), LockSpec{Kind: Bakery}, 2, PSO,
		SynthOptions{Oracle: OracleExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("expected complete frontier, verdict: %s", res.Verdict)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	gt, err := TradeoffSweepCtx(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Frontier {
		for _, g := range gt {
			if g.Fences <= pt.Fences && g.RMRs <= pt.RMRs &&
				(g.Fences < pt.Fences || g.RMRs < pt.RMRs) {
				t.Errorf("frontier point %v (f=%d r=%d) strictly dominated by %v (f=%d r=%d)",
					pt.Sites, pt.Fences, pt.RMRs, g.Lock, g.Fences, g.RMRs)
			}
		}
		if pt.LHS <= 0 {
			t.Errorf("frontier point %v has non-positive tradeoff LHS %v", pt.Sites, pt.LHS)
		}
	}
}

// TestSynthesizeFencesWitnessDir: refutation artifacts land on disk and
// round-trip through decode + replay.
func TestSynthesizeFencesWitnessDir(t *testing.T) {
	dir := t.TempDir()
	res, err := SynthesizeFences(context.Background(), LockSpec{Kind: Peterson}, 2, TSO,
		SynthOptions{Oracle: OracleExhaustive, WitnessDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	// One artifact per oracle refutation (pruned placements are refuted by
	// transfer and carry in-memory artifacts only).
	oracleRefs := 0
	for _, ref := range res.Refuted {
		if !ref.Pruned {
			oracleRefs++
		}
	}
	if len(files) != oracleRefs || oracleRefs == 0 {
		t.Fatalf("witness dir has %v, want %d oracle-refutation artifacts", files, oracleRefs)
	}
	data, err := os.ReadFile(filepath.Join(dir, files[0]))
	if err != nil {
		t.Fatal(err)
	}
	w, err := DecodeWitness(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayWitness(w); err != nil {
		t.Errorf("on-disk artifact %s does not replay: %v", files[0], err)
	}
}

// TestSynthesizeFencesPartialVerdict: tripping the global oracle-call
// bound yields an explicit partial-frontier verdict, never silent
// truncation.
func TestSynthesizeFencesPartialVerdict(t *testing.T) {
	res, err := SynthesizeFences(context.Background(), LockSpec{Kind: Peterson}, 2, PSO,
		SynthOptions{Oracle: OracleExhaustive, MaxOracleCalls: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("capped run claims completeness")
	}
	if !strings.HasPrefix(res.Verdict, "frontier partial:") {
		t.Errorf("verdict = %q, want frontier partial", res.Verdict)
	}
	if res.Unchecked == 0 {
		t.Error("capped run reports zero unchecked placements")
	}
}

// TestSynthLockName: the placement naming round-trips through the
// witness-subject parser (bad names rejected).
func TestSynthLockName(t *testing.T) {
	name, err := SynthLockName(LockSpec{Kind: Peterson}, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if name != "synth:peterson:0-1" {
		t.Errorf("SynthLockName = %q", name)
	}
	if _, err := subjectForLockName(name, 2, 1); err != nil {
		t.Errorf("subjectForLockName(%q): %v", name, err)
	}
	if _, err := subjectForLockName("synth:peterson", 2, 1); err == nil {
		t.Error("synth name without placement suffix should fail")
	}
	if _, err := subjectForLockName("synth:nope:0", 2, 1); err == nil {
		t.Error("synth name with unknown base should fail")
	}
	if _, err := subjectForLockName("synth:peterson:9", 2, 1); err == nil {
		t.Error("synth placement beyond the lock's sites should fail")
	}
}
