package tradingfences

import (
	"context"
	"fmt"

	"tradingfences/internal/bits"
	"tradingfences/internal/core"
	"tradingfences/internal/machine"
	"tradingfences/internal/perm"
	"tradingfences/internal/run"
)

// Permutation is a permutation of the process IDs [0, n): Permutation[i]
// is the process at position i of the paper's π = (p_0, ..., p_{n-1}).
type Permutation = []int

// IdentityPerm returns (0, 1, ..., n-1).
func IdentityPerm(n int) Permutation { return perm.Identity(n) }

// ReversePerm returns (n-1, ..., 1, 0).
func ReversePerm(n int) Permutation { return perm.Reverse(n) }

// RandomPerm returns a seeded uniform random permutation of [n].
func RandomPerm(n int, seed int64) Permutation {
	return perm.Random(n, newRand(seed))
}

// CommandCensus counts, per command kind of the paper's Table 1, how often
// the encoding used it.
type CommandCensus struct {
	Proceed          int
	Commit           int
	WaitHiddenCommit int
	WaitReadFinish   int
	WaitLocalFinish  int
}

// EncodingReport is the outcome of running the Section 5 construction for
// one permutation.
type EncodingReport struct {
	Lock   LockSpec
	Object ObjectKind
	N      int
	Perm   Permutation

	// Fences is β(E_π), RMRs is ρ(E_π), Steps the total step count, and
	// HiddenCommits the number of commits executed hidden.
	Fences        int64
	RMRs          int64
	Steps         int64
	HiddenCommits int64

	// Commands (m), ParamSum (v) and Census describe the command stacks.
	Commands int
	ParamSum int64
	Census   CommandCensus

	// Code is the bit-exact serialization of the stacks; BitLen its
	// length in bits.
	Code   []byte
	BitLen int

	// Bound is m·(log2(v/m)+1) — the code-length bound of Equation 7.
	// TheoremLHS is β·(log2(ρ/β)+1) — the left side of Theorem 4.2.
	// InfoContent is log2(n!), the entropy floor.
	Bound       float64
	TheoremLHS  float64
	InfoContent float64

	// Iterations is the number of construction iterations.
	Iterations int
}

// EncodePermutationCtx runs the paper's Section 5.2 construction for the
// ordering object over the lock, for permutation pi, under the PSO machine.
// It errors if the object fails the ordering property (Definition 4.1) —
// i.e. if some process does not return its π-rank in the constructed
// execution. The construction is bounded by a budget (MaxWall applies to
// the whole construction, MaxSteps to each decode pass; the zero Budget is
// unlimited) and cancellable via ctx: cancellation mid-construction
// returns promptly with an error matching context.Canceled.
func EncodePermutationCtx(ctx context.Context, spec LockSpec, obj ObjectKind, pi Permutation, budget Budget) (rep *EncodingReport, err error) {
	defer run.Recover("encode permutation", &err)
	n := len(pi)
	sys, err := NewSystem(spec, obj, n)
	if err != nil {
		return nil, err
	}
	enc := &core.Encoder{
		Build: func() (*machine.Config, error) {
			return sys.newConfig(PSO)
		},
		Ctx:    ctx,
		Budget: budget,
	}
	res, err := enc.Encode(perm.Perm(pi))
	if err != nil {
		return nil, fmt.Errorf("encode %v over %v: %w", pi, spec, err)
	}
	m := core.Measure(res)
	w := core.SerializeStacks(res.Stacks)
	return &EncodingReport{
		Lock:          spec,
		Object:        obj,
		N:             n,
		Perm:          append([]int(nil), pi...),
		Fences:        m.Fences,
		RMRs:          m.RMRs,
		Steps:         m.Steps,
		HiddenCommits: m.HiddenCommits,
		Commands:      m.Commands,
		ParamSum:      m.ParamSum,
		Census: CommandCensus{
			Proceed:          m.PerKind[core.CmdProceed],
			Commit:           m.PerKind[core.CmdCommit],
			WaitHiddenCommit: m.PerKind[core.CmdWaitHiddenCommit],
			WaitReadFinish:   m.PerKind[core.CmdWaitReadFinish],
			WaitLocalFinish:  m.PerKind[core.CmdWaitLocalFinish],
		},
		Code:        append([]byte(nil), w.Bytes()...),
		BitLen:      w.Len(),
		Bound:       m.Bound,
		TheoremLHS:  m.TheoremLHS,
		InfoContent: m.InfoContent,
		Iterations:  res.Iterations,
	}, nil
}

// RecoverPermutationFromCode inverts EncodePermutation: it parses the
// bit-exact code back into command stacks, decodes them into an execution
// of the same system, and reads the permutation off the processes' return
// values. This is the decoding direction of the paper's counting argument
// and certifies that the code uniquely identifies π.
func RecoverPermutationFromCode(spec LockSpec, obj ObjectKind, n int, code []byte, bitLen int) (Permutation, error) {
	sys, err := NewSystem(spec, obj, n)
	if err != nil {
		return nil, err
	}
	stacks, err := core.DeserializeStacks(bits.NewReader(code, bitLen), n)
	if err != nil {
		return nil, err
	}
	cfg, err := sys.newConfig(PSO)
	if err != nil {
		return nil, err
	}
	pi, err := core.RecoverPermutation(cfg, stacks)
	if err != nil {
		return nil, err
	}
	return []int(pi), nil
}

// Log2Factorial returns log2(n!) — the number of bits any injective
// encoding of permutations of [n] needs on average.
func Log2Factorial(n int) float64 { return perm.Log2Factorial(n) }
