package check

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

// CheckpointVersion is the snapshot schema version. Decoders reject files
// with a different version rather than misinterpreting them, and the
// rejection matches ErrCheckpointDrift so callers' retry ladders treat a
// schema bump like any other certification failure (fail closed, restart
// from zero). Version 2 added the crash budget (MaxCrashes) to the
// certified identity. Version 3 switched the visited shards from
// process-local string fingerprints to fixed-width binary StateKeys and
// certifies the codec version and symmetry mode. Version 4 certifies the
// exploration engine: snapshots are taken by the work-stealing DFS
// explorer at quiescent barriers (and at budget trips), the frontier
// holds pending *edges* instead of unexpanded BFS nodes, worker DFS
// stacks are serialized alongside it, and Level is reinterpreted as the
// snapshot generation (a save counter, >= 1). Level-synchronous v3
// snapshots carry a frontier no current explorer can consume, so they are
// rejected instead of silently misread. Version 5 certifies the
// state-space reduction modes (the resolved reorder bound and the
// partial-order-reduction flag): a reduced run's frontier and visited keys
// cover the reduced graph only, and a bounded run's keys carry reorder
// ages, so resuming under different reduction modes would either skip
// reachable states or prune on keys from a different encoding — both flips
// fail closed with ErrCheckpointDrift. Version 6 adds no field: the
// StateKey hash changed from byte-wise FNV-1a to MurmurHash3 x64_128
// while the key bytes (codec 1) stayed the same, so a v5 snapshot's
// visited shards and root key hold values no current run mints. Version 7
// adds no field either: an unreduced StateKey became the sum of its
// components' hashes instead of the hash of the whole encoding (see
// machine.Config.StateKey), over the same fields (codec 1), so a v6
// snapshot's shards and root key again hold values no current run mints.
// Version 8 drops the symmetry mode with process-symmetry reduction: a v7
// snapshot of a symmetric run holds orbit keys, which no current run mints
// and which would otherwise decode (the field is ignored) and resume with
// its shards dropped on a root-key mismatch.
const CheckpointVersion = 8

// EngineWSDFS names the work-stealing undo-log DFS engine inside
// checkpoint snapshots. It is the only engine the current decoder
// certifies; snapshots naming any other engine fail closed with
// ErrCheckpointDrift.
const EngineWSDFS = "ws-dfs"

// defaultCheckpointStates is the snapshot cadence floor when
// CheckpointPolicy.EveryStates is unset: the explorer requests a snapshot
// barrier after this many freshly interned states, or a quarter of the
// visited-set size, whichever is larger (geometric spacing keeps the
// total serialization cost linear in the final state count).
const defaultCheckpointStates = 1024

// ErrCheckpointDrift is the sentinel matched by resume failures caused by
// a snapshot that does not certify against the subject being resumed: the
// lock program, process count, layout, memory model, key codec or
// exploration engine changed since the snapshot was taken.
var ErrCheckpointDrift = errors.New("check: checkpoint does not match subject")

// CheckpointMeta identifies the checked subject well enough for a fresh
// process to rebuild it (mirroring the witness artifact's identity
// fields). The engine copies it into snapshots verbatim; the facade sets
// and consumes it.
type CheckpointMeta struct {
	// Kind is the checked property ("mutex").
	Kind string `json:"kind"`
	// Lock names the lock spec; with N and Passages it reconstructs the
	// instrumented subject.
	Lock     string `json:"lock"`
	N        int    `json:"n"`
	Passages int    `json:"passages"`
}

// CheckpointPolicy configures periodic snapshots of a parallel
// exploration.
type CheckpointPolicy struct {
	// Path is the snapshot file. Each save atomically replaces the
	// previous snapshot (tmp+rename), so the file always holds one
	// complete, certified snapshot.
	Path string
	// EveryStates is the snapshot cadence floor in freshly interned
	// states (default 1024). The effective interval between barriers is
	// max(EveryStates, visitedSize/4): early snapshots come quickly, and
	// the interval then grows geometrically with the state space so the
	// cumulative cost of serializing the visited set stays linear.
	EveryStates int
	// Meta is copied into every snapshot for subject reconstruction.
	Meta CheckpointMeta
}

func (p *CheckpointPolicy) everyStates() int {
	if p.EveryStates <= 0 {
		return defaultCheckpointStates
	}
	return p.EveryStates
}

// CheckpointNode is one pending frontier edge, stored as the schedule
// that reaches its (not yet interned) target from the initial
// configuration. Configurations are reconstructed by replay, never
// serialized; Crashes is the crash budget spent along the whole schedule.
type CheckpointNode struct {
	Schedule string `json:"schedule"`
	Crashes  int    `json:"crashes,omitempty"`
}

// CheckpointFrame is one pending DFS stack frame: a node at Depth along
// the owning stack's schedule, with the successor elements not yet
// explored (a schedule-element list) and the crash budget spent at the
// node.
type CheckpointFrame struct {
	Depth   int    `json:"depth"`
	Crashes int    `json:"crashes,omitempty"`
	Elems   string `json:"elems"`
}

// CheckpointStack is one worker's serialized DFS stack: the schedule from
// the root to its deepest pending frame, plus every frame that still has
// unexplored successor elements (frames in between that were exhausted
// are dropped, so Depth may skip values). Resume hands a whole stack to
// one worker, which replays the schedule once and re-enters the DFS —
// deep stacks therefore cost one replay, not one per pending edge.
type CheckpointStack struct {
	Schedule string            `json:"schedule"`
	Frames   []CheckpointFrame `json:"frames"`
}

// Checkpoint is a versioned snapshot of a work-stealing exhaustive
// exploration: the stealable frontier edges, the paused workers' DFS
// stacks, the visited-set shards, and the meter usage charged so far. A
// CRC over the canonical encoding detects corrupted snapshots; the
// subject identity hash (the same machine.IdentityFingerprint witness
// artifacts use) detects drift of the subject between save and resume.
type Checkpoint struct {
	Version int `json:"version"`
	// Engine names the exploration engine the snapshot was taken by
	// (EngineWSDFS). Frontier and stack entries are only meaningful to
	// the engine that wrote them; a mismatch is ErrCheckpointDrift.
	Engine string         `json:"engine"`
	Meta   CheckpointMeta `json:"meta"`
	// Model names the memory model ("SC", "TSO", "PSO").
	Model string `json:"model"`
	// Identity is the build-stable identity hash of the subject's fresh
	// initial configuration; Resume rejects the snapshot if a freshly
	// built subject hashes differently.
	Identity string `json:"identity"`
	// Codec is the StateKey codec version (machine.StateKeyCodecVersion)
	// the visited shards were minted under. Keys from a different codec
	// cannot prune soundly; resume rejects a mismatch with
	// ErrCheckpointDrift.
	Codec int `json:"codec"`
	// ReorderBound is the resolved reorder bound the exploration ran under
	// (0 = full buffer semantics; SC runs always record 0 — the honest
	// no-op convention). Part of the certified identity: bounded visited
	// keys embed reorder ages and the bounded frontier covers the bounded
	// graph only, so resume requires the identical bound and rejects a
	// mismatch with ErrCheckpointDrift.
	ReorderBound int `json:"reorder_bound,omitempty"`
	// POR records whether ample-set partial-order reduction was in force.
	// A reduced frontier does not cover the unreduced graph's pending
	// successors, and an unreduced resume of it would not either, so
	// resume requires the same mode and rejects a mismatch with
	// ErrCheckpointDrift. The cycle proviso is static, so it needs no
	// field (DESIGN.md §5j).
	POR bool `json:"por,omitempty"`
	// RootFP is the hex StateKey of the fresh initial configuration.
	// Binary keys are build-stable, so any process that rebuilds the same
	// subject reproduces it and reuses the visited shards; a mismatch
	// (defense in depth — certification should have caught the drift)
	// drops the shards, which is sound but may revisit states.
	RootFP string `json:"root_fp"`
	// MaxCrashes is the adversarial crash budget the exploration ran
	// under. It is part of the certified identity: the visited keys fold
	// the crashes-spent count in if and only if a budget is in force, and
	// a frontier generated under one budget is not a sound starting point
	// for another — resume rejects a mismatch with ErrCheckpointDrift.
	MaxCrashes int `json:"max_crashes"`
	// Level is the snapshot generation: 1 for the first save of a run and
	// incremented on every later save (the JSON name predates the
	// work-stealing engine, when it was the BFS frontier depth; keeping
	// it makes v4 files greppable by the same tooling). A resumed run
	// continues the donor's numbering, so generations are monotone across
	// an interrupted-and-resumed chain.
	Level int `json:"level"`
	// Frontier holds the stealable pending edges that were still queued
	// (published by donating workers or re-queued at shutdown). Each
	// edge's final step is already in Steps.
	Frontier []CheckpointNode `json:"frontier"`
	// Stacks holds the paused workers' serialized DFS stacks, whose
	// pending elements are not yet charged. Frontier and Stacks together
	// cover every unexplored successor; at least one of them is non-empty
	// (completed runs are not snapshotted).
	Stacks []CheckpointStack `json:"stacks,omitempty"`
	// Shards holds the visited fingerprints partitioned by key hash
	// (machine.VisitedShards shards, independent of the worker count).
	Shards [][]string `json:"shards"`
	// Steps, States and Mem are the meter charges at snapshot time;
	// Resume preloads them so budgets span the whole logical run.
	Steps  int64 `json:"steps"`
	States int64 `json:"states"`
	Mem    int64 `json:"mem"`
	// Checksum is the CRC-32 (IEEE) of the canonical encoding with this
	// field empty.
	Checksum string `json:"crc32"`
}

// validate checks structural well-formedness (everything except the
// checksum, which Decode verifies against the raw bytes).
func (ck *Checkpoint) validate() error {
	if ck == nil {
		return errors.New("checkpoint: nil snapshot")
	}
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("%w: unsupported snapshot version %d (have %d)", ErrCheckpointDrift, ck.Version, CheckpointVersion)
	}
	if ck.Engine != EngineWSDFS {
		return fmt.Errorf("%w: snapshot taken by engine %q (have %q)", ErrCheckpointDrift, ck.Engine, EngineWSDFS)
	}
	if ck.Codec != machine.StateKeyCodecVersion {
		return fmt.Errorf("%w: snapshot keys use codec %d (have %d)", ErrCheckpointDrift, ck.Codec, machine.StateKeyCodecVersion)
	}
	switch ck.Model {
	case "SC", "TSO", "PSO":
	default:
		return fmt.Errorf("checkpoint: unknown model %q", ck.Model)
	}
	if ck.Identity == "" {
		return errors.New("checkpoint: missing subject identity hash")
	}
	if ck.RootFP != "" {
		if _, err := machine.ParseStateKey(ck.RootFP); err != nil {
			return fmt.Errorf("checkpoint: root key: %w", err)
		}
	}
	if ck.MaxCrashes < 0 {
		return fmt.Errorf("checkpoint: negative crash budget %d", ck.MaxCrashes)
	}
	if ck.ReorderBound < 0 || ck.ReorderBound > machine.MaxReorderBound {
		return fmt.Errorf("checkpoint: reorder bound %d outside [0, %d]", ck.ReorderBound, machine.MaxReorderBound)
	}
	if ck.Level < 1 {
		return fmt.Errorf("checkpoint: generation %d, want >= 1", ck.Level)
	}
	if len(ck.Frontier) == 0 && len(ck.Stacks) == 0 {
		return errors.New("checkpoint: no pending work (completed runs are not snapshotted)")
	}
	for i, nd := range ck.Frontier {
		sched, err := machine.ParseSchedule(nd.Schedule)
		if err != nil {
			return fmt.Errorf("checkpoint: frontier[%d]: %w", i, err)
		}
		if len(sched) == 0 {
			return fmt.Errorf("checkpoint: frontier[%d]: empty edge schedule", i)
		}
		if nd.Crashes < 0 {
			return fmt.Errorf("checkpoint: frontier[%d]: negative crash count", i)
		}
		if nd.Crashes > ck.MaxCrashes {
			return fmt.Errorf("checkpoint: frontier[%d]: %d crashes spent exceeds budget %d", i, nd.Crashes, ck.MaxCrashes)
		}
	}
	for i, st := range ck.Stacks {
		sched, err := machine.ParseSchedule(st.Schedule)
		if err != nil {
			return fmt.Errorf("checkpoint: stacks[%d]: %w", i, err)
		}
		if len(st.Frames) == 0 {
			return fmt.Errorf("checkpoint: stacks[%d]: no frames", i)
		}
		prev := -1
		for j, fr := range st.Frames {
			if fr.Depth <= prev {
				return fmt.Errorf("checkpoint: stacks[%d]: frame depths not strictly increasing at [%d]", i, j)
			}
			prev = fr.Depth
			if fr.Depth > len(sched) {
				return fmt.Errorf("checkpoint: stacks[%d][%d]: depth %d beyond schedule length %d", i, j, fr.Depth, len(sched))
			}
			elems, err := machine.ParseSchedule(fr.Elems)
			if err != nil {
				return fmt.Errorf("checkpoint: stacks[%d][%d]: %w", i, j, err)
			}
			if len(elems) == 0 {
				return fmt.Errorf("checkpoint: stacks[%d][%d]: no pending elements", i, j)
			}
			if fr.Crashes < 0 || fr.Crashes > ck.MaxCrashes {
				return fmt.Errorf("checkpoint: stacks[%d][%d]: crash count %d outside budget %d", i, j, fr.Crashes, ck.MaxCrashes)
			}
		}
		if st.Frames[len(st.Frames)-1].Depth != len(sched) {
			return fmt.Errorf("checkpoint: stacks[%d]: schedule not truncated at deepest frame (%d elems, deepest frame at %d)",
				i, len(sched), st.Frames[len(st.Frames)-1].Depth)
		}
	}
	for i, shard := range ck.Shards {
		for j, key := range shard {
			if _, err := machine.ParseStateKey(key); err != nil {
				return fmt.Errorf("checkpoint: shards[%d][%d]: %w", i, j, err)
			}
		}
	}
	if ck.Steps < 0 || ck.States < 0 || ck.Mem < 0 {
		return errors.New("checkpoint: negative meter usage")
	}
	return nil
}

// checksum computes the CRC over the canonical encoding with the Checksum
// field cleared.
func (ck *Checkpoint) checksum() (string, error) {
	tmp := *ck
	tmp.Checksum = ""
	payload, err := json.Marshal(&tmp)
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload)), nil
}

// EncodeCheckpoint validates and serializes a snapshot, stamping its CRC.
func EncodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	if err := ck.validate(); err != nil {
		return nil, err
	}
	sum, err := ck.checksum()
	if err != nil {
		return nil, err
	}
	out := *ck
	out.Checksum = sum
	b, err := json.Marshal(&out)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeCheckpoint parses a serialized snapshot, verifying the CRC and the
// structural invariants. The CRC is checked over the raw bytes with the
// stored checksum value excised — not over a re-marshaled struct — so a
// snapshot certifies only when its bytes are exactly the canonical
// encoding EncodeCheckpoint hashed: unknown or duplicate JSON fields,
// reformatting, truncation and value flips are all rejected. A resume
// never starts from a snapshot it cannot certify.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if ck.Checksum == "" {
		return nil, errors.New("checkpoint: missing checksum")
	}
	// The checksum field is the last field of the canonical encoding, so
	// its serialization is the last occurrence of this needle.
	needle := []byte(`"crc32":"` + ck.Checksum + `"`)
	i := bytes.LastIndex(data, needle)
	if i < 0 {
		return nil, errors.New("checkpoint: checksum field not in canonical form")
	}
	payload := make([]byte, 0, len(data))
	payload = append(payload, data[:i]...)
	payload = append(payload, `"crc32":""`...)
	payload = append(payload, data[i+len(needle):]...)
	payload = bytes.TrimSuffix(payload, []byte("\n"))
	if sum := fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload)); sum != ck.Checksum {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (%s stored, %s computed): corrupted or non-canonical snapshot", ck.Checksum, sum)
	}
	if err := ck.validate(); err != nil {
		return nil, err
	}
	return &ck, nil
}

// ReadCheckpoint loads and decodes a snapshot file.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(data)
}

// buildCheckpoint assembles a snapshot from the engine's quiesced state:
// the queued stealable edges, the paused workers' serialized stacks, the
// visited shards and the meter charges.
func buildCheckpoint(policy *CheckpointPolicy, model machine.Model, identity, rootKey string,
	bound int, por bool, maxCrashes, gen int, frontier []CheckpointNode,
	stacks []CheckpointStack, visited *machine.VisitedSet, meter *run.SharedMeter) *Checkpoint {
	return &Checkpoint{
		Version:      CheckpointVersion,
		Engine:       EngineWSDFS,
		Meta:         policy.Meta,
		Model:        model.String(),
		Identity:     identity,
		Codec:        machine.StateKeyCodecVersion,
		ReorderBound: bound,
		POR:          por,
		RootFP:       rootKey,
		MaxCrashes:   maxCrashes,
		Level:        gen,
		Frontier:     frontier,
		Stacks:       stacks,
		Shards:       visited.Dump(),
		Steps:        meter.Steps(),
		States:       meter.States(),
		Mem:          meter.Mem(),
	}
}

// saveCheckpoint encodes and atomically writes a snapshot. A snapshot that
// cannot be persisted is a hard error: continuing silently would void the
// recoverability the caller asked for.
func saveCheckpoint(ck *Checkpoint, path string) error {
	data, err := EncodeCheckpoint(ck)
	if err != nil {
		return err
	}
	return run.WriteFileAtomic(path, data, 0o644)
}

// resumeState is a decoded snapshot rehydrated against a live subject.
type resumeState struct {
	gen     int       // snapshot generation the run continues from
	entries []wsEntry // pending edges and whole-stack adoptions
	visited *machine.VisitedSet
	reused  bool // visited shards certified compatible and reloaded
	steps   int64
	states  int64
	mem     int64
}

// loadCheckpoint certifies a snapshot against the subject and rebuilds the
// exploration state: pending-edge schedules and stack schedules are
// verified to replay on a fresh build, and the visited shards are reused
// when the fresh root's StateKey reproduces the snapshot's (see
// Checkpoint.RootFP — with stable binary keys this is the norm, including
// across OS processes). Identity, model, crash-budget, codec, reduction or
// engine drift is rejected with ErrCheckpointDrift: the snapshot's pending
// work and visited keys are meaningful only under the budget, codec,
// reductions and engine they were minted with, so resuming under
// different ones would either skip reachable states or prune on mismatched
// keys. When the shards are dropped (root-key mismatch), the pending edges
// still cover every unexplored successor, so the resumed run is sound but
// may revisit states behind them (States then overcounts the clean run).
func (s *Subject) loadCheckpoint(model machine.Model, ck *Checkpoint, maxCrashes int, opts Opts) (*resumeState, error) {
	if err := ck.validate(); err != nil {
		return nil, err
	}
	if got := model.String(); got != ck.Model {
		return nil, fmt.Errorf("%w: snapshot is for model %s, resuming under %s", ErrCheckpointDrift, ck.Model, got)
	}
	if maxCrashes != ck.MaxCrashes {
		return nil, fmt.Errorf("%w: snapshot was taken under crash budget %d, resuming under %d", ErrCheckpointDrift, ck.MaxCrashes, maxCrashes)
	}
	bound := opts.Reduction.ReorderBound
	if model == machine.SC {
		bound = 0 // Config.SetReorderBound's honest no-op convention
	}
	if bound != ck.ReorderBound {
		return nil, fmt.Errorf("%w: snapshot was taken under reorder bound %d, resuming under %d", ErrCheckpointDrift, ck.ReorderBound, bound)
	}
	if opts.Reduction.POR != ck.POR {
		return nil, fmt.Errorf("%w: snapshot was taken with por=%v, resuming with por=%v", ErrCheckpointDrift, ck.POR, opts.Reduction.POR)
	}
	root, err := s.Build(model)
	if err != nil {
		return nil, err
	}
	if id := root.IdentityFingerprint(); id != ck.Identity {
		return nil, fmt.Errorf("%w: identity %s, snapshot has %s", ErrCheckpointDrift, id, ck.Identity)
	}
	rootKey, err := s.stateKey(root, 0, maxCrashes, 0)
	if err != nil {
		return nil, err
	}
	rs := &resumeState{
		gen:     ck.Level,
		visited: machine.NewVisitedSet(),
		reused:  rootKey.String() == ck.RootFP,
		steps:   ck.Steps,
		states:  ck.States,
		mem:     ck.Mem,
	}
	if rs.reused {
		for _, shard := range ck.Shards {
			for _, hexKey := range shard {
				key, err := machine.ParseStateKey(hexKey)
				if err != nil {
					return nil, fmt.Errorf("checkpoint: %w", err)
				}
				rs.visited.TryVisit(key)
			}
		}
	}
	replays := func(what string, i int, sched machine.Schedule) error {
		cfg, err := s.Build(model)
		if err != nil {
			return err
		}
		if _, err := cfg.Exec(sched); err != nil {
			return fmt.Errorf("%w: %s[%d] schedule does not replay: %v", ErrCheckpointDrift, what, i, err)
		}
		return nil
	}
	for i, nd := range ck.Frontier {
		sched, err := machine.ParseSchedule(nd.Schedule)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: frontier[%d]: %w", i, err)
		}
		if err := replays("frontier", i, sched); err != nil {
			return nil, err
		}
		rs.entries = append(rs.entries, wsEntry{sched: sched, crashes: nd.Crashes, donor: -1})
	}
	for i, st := range ck.Stacks {
		sched, err := machine.ParseSchedule(st.Schedule)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: stacks[%d]: %w", i, err)
		}
		if err := replays("stacks", i, sched); err != nil {
			return nil, err
		}
		frames := make([]wsStackFrame, len(st.Frames))
		for j, fr := range st.Frames {
			elems, err := machine.ParseSchedule(fr.Elems)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: stacks[%d][%d]: %w", i, j, err)
			}
			frames[j] = wsStackFrame{depth: fr.Depth, crashes: fr.Crashes, elems: elems}
		}
		rs.entries = append(rs.entries, wsEntry{sched: sched, donor: -1, stack: frames})
	}
	return rs, nil
}
