package check

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
)

// hexKey mints a syntactically valid shard key for snapshot fixtures.
func hexKey(seed string) string {
	return machine.HashStateKey([]byte(seed)).String()
}

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Version:    CheckpointVersion,
		Engine:     EngineWSDFS,
		Meta:       CheckpointMeta{Kind: "mutex", Lock: "bakery-tso", N: 2, Passages: 1},
		Model:      "PSO",
		Identity:   "deadbeefdeadbeef",
		Codec:      machine.StateKeyCodecVersion,
		RootFP:     hexKey("root"),
		MaxCrashes: 1,
		// Nonzero reduction modes so their certification fields appear in
		// the sample's encoding (round-trip and fuzz mutants cover them).
		ReorderBound: 2,
		POR:          true,
		Level:        4,
		Frontier:     []CheckpointNode{{Schedule: "p0 p1 p0:R3"}, {Schedule: "p1 p0!", Crashes: 1}},
		Stacks: []CheckpointStack{{
			Schedule: "p0 p1",
			Frames: []CheckpointFrame{
				{Depth: 0, Elems: "p1"},
				{Depth: 2, Crashes: 1, Elems: "p0 p1!"},
			},
		}},
		Shards: [][]string{{hexKey("a"), hexKey("b")}, {hexKey("c")}},
		Steps:  123,
		States: 45,
		Mem:    6789,
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	data, err := EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Level != ck.Level || got.States != ck.States || got.Model != ck.Model ||
		got.Identity != ck.Identity || got.Engine != ck.Engine ||
		len(got.Frontier) != len(ck.Frontier) || len(got.Stacks) != len(ck.Stacks) {
		t.Fatalf("round trip drifted: %+v vs %+v", got, ck)
	}
	if len(got.Stacks[0].Frames) != 2 || got.Stacks[0].Frames[1].Crashes != 1 {
		t.Fatalf("stack frames drifted: %+v", got.Stacks)
	}
	if got.Checksum == "" {
		t.Fatal("decoded snapshot lost its checksum")
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	data, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	// Truncation.
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 2} {
		if _, err := DecodeCheckpoint(data[:cut]); err == nil {
			t.Fatalf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
	// A value flip that keeps the JSON well-formed must trip the CRC.
	tampered := strings.Replace(string(data), `"states":45`, `"states":46`, 1)
	if tampered == string(data) {
		t.Fatal("test setup: tamper target not found")
	}
	if _, err := DecodeCheckpoint([]byte(tampered)); err == nil {
		t.Fatal("tampered snapshot accepted")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("tampered snapshot rejected for the wrong reason: %v", err)
	}
	// Version drift.
	bad := sampleCheckpoint()
	bad.Version = CheckpointVersion + 1
	if _, err := EncodeCheckpoint(bad); err == nil {
		t.Fatal("future version encoded")
	}
}

// requireOldVersionFailsClosed: a well-formed snapshot of an earlier
// schema version — canonical bytes, valid CRC — must fail closed as drift
// on its version, not resume.
func requireOldVersionFailsClosed(t *testing.T, version int) {
	t.Helper()
	ck := sampleCheckpoint()
	ck.Version = version
	sum, err := ck.checksum()
	if err != nil {
		t.Fatal(err)
	}
	ck.Checksum = sum
	data, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeCheckpoint(append(data, '\n'))
	if !errors.Is(err, ErrCheckpointDrift) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", version)) {
		t.Fatalf("v%d snapshot: got %v, want ErrCheckpointDrift on its version", version, err)
	}
}

// TestCheckpointV5FailsClosed: a v5 snapshot holds keys hashed with
// FNV-1a, which no current run mints.
func TestCheckpointV5FailsClosed(t *testing.T) { requireOldVersionFailsClosed(t, 5) }

// TestCheckpointV6FailsClosed: a v6 snapshot holds keys that hash each
// state's whole encoding, where current runs sum component hashes, so no
// current run mints them either.
func TestCheckpointV6FailsClosed(t *testing.T) { requireOldVersionFailsClosed(t, 6) }

// TestCheckpointV7FailsClosed: a v7 snapshot may hold the orbit keys of a
// process-symmetric run, which no current run mints; decoding would drop
// its symmetry field, so the version alone must reject it.
func TestCheckpointV7FailsClosed(t *testing.T) { requireOldVersionFailsClosed(t, 7) }

func TestCheckpointValidation(t *testing.T) {
	mut := func(f func(*Checkpoint)) *Checkpoint {
		ck := sampleCheckpoint()
		f(ck)
		return ck
	}
	cases := map[string]*Checkpoint{
		"no pending work": mut(func(c *Checkpoint) { c.Frontier, c.Stacks = nil, nil }),
		"wrong engine":    mut(func(c *Checkpoint) { c.Engine = "bfs-level-sync" }),
		"bad model":       mut(func(c *Checkpoint) { c.Model = "RMO" }),
		"bad schedule":    mut(func(c *Checkpoint) { c.Frontier[0].Schedule = "q9" }),
		"no identity":     mut(func(c *Checkpoint) { c.Identity = "" }),
		"bad codec":       mut(func(c *Checkpoint) { c.Codec = machine.StateKeyCodecVersion + 1 }),
		"bad root key":    mut(func(c *Checkpoint) { c.RootFP = "root-token" }),
		"bad shard key":   mut(func(c *Checkpoint) { c.Shards[1][0] = "not-hex" }),
		"short shard key": mut(func(c *Checkpoint) {
			c.Shards[0][0] = c.Shards[0][0][:30]
		}),
		"zero generation":       mut(func(c *Checkpoint) { c.Level = 0 }),
		"negative level":        mut(func(c *Checkpoint) { c.Level = -1 }),
		"negative meter":        mut(func(c *Checkpoint) { c.Steps = -5 }),
		"negative crash budget": mut(func(c *Checkpoint) { c.MaxCrashes = -1 }),
		"crashes over budget":   mut(func(c *Checkpoint) { c.Frontier[1].Crashes = 2 }),
		"crashes without budget": mut(func(c *Checkpoint) {
			c.MaxCrashes = 0 // frontier[1] has spent one crash
		}),
		"bad stack schedule": mut(func(c *Checkpoint) { c.Stacks[0].Schedule = "q9" }),
		"stack without frames": mut(func(c *Checkpoint) {
			c.Stacks[0].Frames = nil
		}),
		"frame depth regression": mut(func(c *Checkpoint) {
			c.Stacks[0].Frames[1].Depth = 0
		}),
		"stack not truncated at deepest frame": mut(func(c *Checkpoint) {
			c.Stacks[0].Frames[1].Depth = 1
		}),
		"frame without pending elems": mut(func(c *Checkpoint) {
			c.Stacks[0].Frames[1].Elems = ""
		}),
		"frame crashes over budget": mut(func(c *Checkpoint) {
			c.Stacks[0].Frames[1].Crashes = 2
		}),
	}
	for name, ck := range cases {
		if _, err := EncodeCheckpoint(ck); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestResumeRejectsDrift(t *testing.T) {
	s, err := NewMutexSubject("bakery", locks.NewBakery, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	kill := func(gen, worker int) error {
		if gen >= 1 {
			return errors.New("chaos")
		}
		return nil
	}
	_, err = s.ExhaustiveParallel(bg(), machine.PSO, Opts{
		Workers: 2, WorkerFault: kill,
		Checkpoint: &CheckpointPolicy{Path: path, EveryStates: 64},
	})
	if err == nil {
		t.Fatal("expected chaos kill")
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong model.
	if _, err := s.ResumeExhaustiveParallel(bg(), machine.TSO, ck, Opts{}); !errors.Is(err, ErrCheckpointDrift) {
		t.Fatalf("model drift not rejected: %v", err)
	}
	// Different lock program: identity hash must mismatch.
	other, err := NewMutexSubject("bakery-tso", locks.NewBakeryTSO, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.ResumeExhaustiveParallel(bg(), machine.PSO, ck, Opts{}); !errors.Is(err, ErrCheckpointDrift) {
		t.Fatalf("subject drift not rejected: %v", err)
	}
}

// A snapshot from an older schema or key codec fails closed with
// ErrCheckpointDrift: version-2 shards hold process-local string
// fingerprints no current explorer can reproduce, so resuming them would
// silently drop the visited set at best.
func TestCheckpointRejectsOldVersionAsDrift(t *testing.T) {
	encodeUnvalidated := func(ck *Checkpoint) []byte {
		sum, err := ck.checksum()
		if err != nil {
			t.Fatal(err)
		}
		out := *ck
		out.Checksum = sum
		b, err := json.Marshal(&out)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	old := sampleCheckpoint()
	old.Version = 2
	if _, err := DecodeCheckpoint(encodeUnvalidated(old)); !errors.Is(err, ErrCheckpointDrift) {
		t.Fatalf("version-2 snapshot not rejected as drift: %v", err)
	}
	wrongCodec := sampleCheckpoint()
	wrongCodec.Codec = machine.StateKeyCodecVersion + 1
	if _, err := DecodeCheckpoint(encodeUnvalidated(wrongCodec)); !errors.Is(err, ErrCheckpointDrift) {
		t.Fatalf("codec drift not rejected as drift: %v", err)
	}
}

// The CRC is verified over the raw bytes: a snapshot with extra JSON
// fields (which json.Unmarshal would silently drop) or a duplicated field
// is not the canonical encoding and must be rejected, not certified.
func TestCheckpointRejectsNonCanonicalBytes(t *testing.T) {
	data, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"unknown field":   strings.Replace(string(data), `{"version":`, `{"smuggled":7,"version":`, 1),
		"duplicate field": strings.Replace(string(data), `{"version":`, `{"level":9,"version":`, 1),
		"reformatted":     strings.Replace(string(data), `,"level":`, `, "level":`, 1),
	}
	for name, mutant := range cases {
		if mutant == string(data) {
			t.Fatalf("%s: test setup: mutation target not found", name)
		}
		if _, err := DecodeCheckpoint([]byte(mutant)); err == nil {
			t.Errorf("%s: non-canonical snapshot certified", name)
		}
	}
}

// A snapshot taken under an adversarial crash budget must not resume
// under a different one: the frontier was generated (and the visited keys
// minted) under that budget, so a mismatch is identity drift — resuming
// crash-generated state with maxCrashes=0 could report Proved while
// crash-reachable violations below the checkpoint level went unexplored.
func TestResumeRejectsCrashBudgetDrift(t *testing.T) {
	s := mustSubject(t, "peterson", locks.NewPeterson, 2)
	faults := &machine.FaultPlan{MaxCrashes: 1}
	clean, err := s.ExhaustiveParallel(bg(), machine.PSO, Opts{Workers: 2, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	kill := func(gen, worker int) error {
		if gen >= 1 {
			return errors.New("chaos")
		}
		return nil
	}
	if _, err := s.ExhaustiveParallel(bg(), machine.PSO, Opts{
		Workers: 2, Faults: faults, WorkerFault: kill,
		Checkpoint: &CheckpointPolicy{Path: path, EveryStates: 64},
	}); err == nil {
		t.Fatal("expected chaos kill")
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.MaxCrashes != 1 {
		t.Fatalf("snapshot recorded crash budget %d, want 1", ck.MaxCrashes)
	}

	// Dropping the budget at resume time is drift, not a fresh default.
	if _, err := s.ResumeExhaustiveParallel(bg(), machine.PSO, ck, Opts{Workers: 2}); !errors.Is(err, ErrCheckpointDrift) {
		t.Fatalf("crash-budget drift not rejected: %v", err)
	}
	// A different non-zero budget is drift too.
	if _, err := s.ResumeExhaustiveParallel(bg(), machine.PSO, ck, Opts{
		Workers: 2, Faults: &machine.FaultPlan{MaxCrashes: 2},
	}); !errors.Is(err, ErrCheckpointDrift) {
		t.Fatalf("crash-budget drift not rejected: %v", err)
	}
	// The matching budget resumes to the clean verdict, with the exact
	// state count when the run is a complete proof.
	resumed, err := s.ResumeExhaustiveParallel(bg(), machine.PSO, ck, Opts{Workers: 2, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Violation != clean.Violation || resumed.Complete != clean.Complete {
		t.Fatalf("crash-budget resume verdict drifted: (viol=%v complete=%v) vs (viol=%v complete=%v)",
			resumed.Violation, resumed.Complete, clean.Violation, clean.Complete)
	}
	if clean.Complete && resumed.States != clean.States {
		t.Fatalf("crash-budget resume visited %d states, clean visited %d", resumed.States, clean.States)
	}
}

// Checkpoint files are written atomically: at any moment the file on disk
// is a complete, decodable snapshot (never a truncated intermediate).
func TestCheckpointFileAlwaysDecodable(t *testing.T) {
	s, err := NewMutexSubject("bakery", locks.NewBakery, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	var seen atomic.Int32
	// The hook runs on every worker goroutine (at start and whenever a
	// worker observes a new snapshot generation), so the observation
	// counter must be atomic.
	hook := func(gen, worker int) error {
		if data, err := os.ReadFile(path); err == nil {
			if _, derr := DecodeCheckpoint(data); derr != nil {
				t.Errorf("generation %d: snapshot on disk undecodable: %v", gen, derr)
			}
			seen.Add(1)
		}
		return nil
	}
	if _, err := s.ExhaustiveParallel(bg(), machine.PSO, Opts{
		Workers: 2, WorkerFault: hook,
		Checkpoint: &CheckpointPolicy{Path: path, EveryStates: 32},
	}); err != nil {
		t.Fatal(err)
	}
	if seen.Load() == 0 {
		t.Fatal("hook never observed a snapshot on disk")
	}
}
