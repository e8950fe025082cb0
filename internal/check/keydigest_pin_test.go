package check_test

import (
	"testing"

	"tradingfences/internal/check"
	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
)

// TestStateKeyDigestPinned pins the visited-set key bytes themselves, not
// just the state counts they induce: a SHA-256 digest over the sorted key
// bytes of every reachable configuration (check.KeyBytesDigest). The
// StateKey codec version 1, checkpoint schema v8 and serve identity v5
// all assume those bytes never drift, and a change to the encoding that
// keeps the partition would pass every count-based test. The subjects
// cover the three memory models, recoverable locks under a crash budget
// (recovery frames, durable locals and the folded crash count) and a
// reorder-bounded run (buffer ages).
// The digests were recorded from the map-backed interpreter that the
// slot-resolved one replaced; a deliberate codec change must bump
// machine.StateKeyCodecVersion and re-record them.
func TestStateKeyDigestPinned(t *testing.T) {
	gt2 := func(l *machine.Layout, nm string, n int) (*locks.Algorithm, error) {
		return locks.NewGT(l, nm, n, 2)
	}
	mutex := func(name string, ctor locks.Constructor, n int) *check.Subject {
		s, err := check.NewMutexSubject(name, ctor, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	bound1 := check.Opts{Reduction: check.Reduction{ReorderBound: 1}}
	for _, tc := range []struct {
		name   string
		s      *check.Subject
		model  machine.Model
		opts   check.Opts
		states int
		digest string
	}{
		{"bakery n=2/SC", mutex("bakery", locks.NewBakery, 2), machine.SC, check.Opts{},
			682, "8e9950c8f2e5460de4f937fa69ceb88366243ecda877e93b1c31bfe1b5e4d78c"},
		{"bakery n=2/TSO", mutex("bakery", locks.NewBakery, 2), machine.TSO, check.Opts{},
			936, "1e0db7281f192322989db40aa2a4fe0db2a102572f441d73415267534afd0964"},
		// At n=2 every suite lock keys PSO exactly like TSO; n=3 is the
		// smallest bakery whose PSO buffers hold two registers at once.
		{"bakery n=3/PSO", mutex("bakery", locks.NewBakery, 3), machine.PSO, check.Opts{},
			77594, "ee7abee414bfa13ec783f973b5587d8085eb66054d3d1934cf7b2f5137354658"},
		{"GT_2 n=2/TSO", mutex("gt2", gt2, 2), machine.TSO, check.Opts{},
			2120, "0da64da46fa4ab58826a25ae6cead6f368b5cc45017ae94b3dea8b644b0b59d2"},
		{"tournament n=3/SC", mutex("tournament", locks.NewTournament, 3), machine.SC, check.Opts{},
			32339, "0dbf1ab014f0540f91843c1449fee078a93b5ad95b29e3970a9d4127b1c0347a"},
		{"bakery n=2/PSO/reorder-bound 1", mutex("bakery", locks.NewBakery, 2), machine.PSO, bound1,
			936, "8fa2211677d2508f2ba23ca2fd9b04c81da2b69b0e519818006538fa157d5d4d"},
		{"GT_2 n=2/TSO/reorder-bound 1", mutex("gt2", gt2, 2), machine.TSO, bound1,
			2120, "d795f2383854589f05403aa0f3f27f88126fec8b64b4ea80ec069df78ee5e965"},
		{"rtas n=2/SC/1-crash", rmeSubject(t, "rtas", 2), machine.SC, oneCrash(),
			1584, "1aa18c1a90109131a7eec498161c8bc428eb76a25b98364ef1dd77eb4bca2822"},
		{"rbakery n=2/PSO/1-crash", rmeSubject(t, "rbakery", 2), machine.PSO, oneCrash(),
			5847, "61655c15cbbadf0fa42215d6ab862b7bc5ce84af418e39385a3a16488fa233b7"},
		{"rtournament n=2/TSO/1-crash", rmeSubject(t, "rtournament", 2), machine.TSO, oneCrash(),
			3742, "50fdf09683a5ce429916461c4a4650587f8e0ed289229fb52f650091d70ceb57"},
	} {
		digest, states, err := check.KeyBytesDigest(tc.s, tc.model, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if states != tc.states || digest != tc.digest {
			t.Errorf("%s: %d states, digest %s; want %d states, digest %s", tc.name, states, digest, tc.states, tc.digest)
		}
	}
}

// TestStateKeyHashPinned pins HashStateKey itself, beside the checkpoint
// schema version whose snapshots store its outputs: a changed hash mints
// different StateKeys from the same key bytes, so it must come with a
// CheckpointVersion bump (and new pins here) or old snapshots would resume
// against keys no run produces. The inputs cover the empty encoding, a
// tail-only one (15 bytes), the published MurmurHash3 x64_128 reference
// vector (43 bytes) and five full blocks plus a tail (94 bytes, about one
// bakery n=3 state).
func TestStateKeyHashPinned(t *testing.T) {
	if check.CheckpointVersion != 8 {
		t.Fatalf("CheckpointVersion = %d: re-pin these outputs with the version that certifies them", check.CheckpointVersion)
	}
	b94 := make([]byte, 94)
	for i := range b94 {
		b94[i] = byte(i)
	}
	for _, tc := range []struct {
		in   []byte
		want string
	}{
		{nil, "00000000000000000000000000000000"},
		{[]byte("The quick brown"), "1692e364b87c13484bd67a3964af7bfd"},
		{[]byte("The quick brown fox jumps over the lazy dog"), "6c1b07bc7bbc4be347939ac4a93c437a"},
		{b94, "2579ecc5d482c85bb143054e69650be3"},
	} {
		if got := machine.HashStateKey(tc.in).String(); got != tc.want {
			t.Errorf("HashStateKey(%d bytes) = %s, want %s", len(tc.in), got, tc.want)
		}
	}
}

// TestStateKeySumPinned pins the component-sum StateKey of a few fixed
// configurations, beside the checkpoint schema version whose snapshots
// store such keys: a change to a component's hash input, a tag, the
// summation or the folding of the crash count and the monitor state mints
// different keys from the same states, so it must come with a
// CheckpointVersion bump (and new pins here). The configurations cover
// the three models, buffered writes under both buffer disciplines,
// reorder ages, a crash with its folded count, and a folded monitor
// state.
func TestStateKeySumPinned(t *testing.T) {
	if check.CheckpointVersion != 8 {
		t.Fatalf("CheckpointVersion = %d: re-pin these keys with the version that certifies them", check.CheckpointVersion)
	}
	gt2 := func(l *machine.Layout, nm string, n int) (*locks.Algorithm, error) {
		return locks.NewGT(l, nm, n, 2)
	}
	mutex := func(name string, ctor locks.Constructor, n int) *check.Subject {
		s, err := check.NewMutexSubject(name, ctor, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range []struct {
		name       string
		s          *check.Subject
		model      machine.Model
		bound      int
		sched      string
		maxCrashes int
		crashes    int
		want       string
	}{
		{"bakery n=3/PSO root", mutex("bakery", locks.NewBakery, 3), machine.PSO, 0, "", 0, 0,
			"1b68a3216ea8231d8fc180bc5bdc83b5"},
		{"bakery n=3/PSO buffered", mutex("bakery", locks.NewBakery, 3), machine.PSO, 0, "p0 p0 p1 p0", 0, 0,
			"99e5892c62c75c0ba1662f7fbd71d54d"},
		{"GT_2 n=2/TSO/reorder-bound 1", mutex("gt2", gt2, 2), machine.TSO, 1, "p0 p1 p1", 0, 0,
			"da9f3017e49169132fecf2eea4d271ae"},
		{"tournament n=3/SC", mutex("tournament", locks.NewTournament, 3), machine.SC, 0, "p0 p1 p2 p0 p1", 0, 0,
			"d3a9035c1529c95f810c4e832f55414e"},
		{"rtas n=2/SC/1-crash", rmeSubject(t, "rtas", 2), machine.SC, 0, "p0 p0 p0! p1", 1, 1,
			"190573994d2bce907c9d4cfc6eb097f9"},
	} {
		c, err := tc.s.Build(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		c.SetReorderBound(tc.bound)
		sched, err := machine.ParseSchedule(tc.sched)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := c.Exec(sched); err != nil || n != len(sched) {
			t.Fatalf("%s: %d of %d elements took: %v", tc.name, n, len(sched), err)
		}
		buffered := 0
		for p := 0; p < c.N(); p++ {
			buffered += c.BufferLen(p)
		}
		if tc.model != machine.SC && len(sched) > 0 && buffered == 0 {
			t.Fatalf("%s: no buffered write to key", tc.name)
		}
		key, err := c.StateKey()
		if err != nil {
			t.Fatal(err)
		}
		if tc.maxCrashes > 0 {
			key = key.Fold(machine.KeyTagCrashes, uint64(tc.crashes))
		}
		if got := key.String(); got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.want)
		}
	}
	// A path monitor's state folds in as one more component.
	c, err := mutex("bakery", locks.NewBakery, 2).Build(machine.PSO)
	if err != nil {
		t.Fatal(err)
	}
	key, err := c.StateKey()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := key.Fold(machine.KeyTagMonitor, 3).String(), "6fa2a1fe65de2e2b3b2fb6b76e4db332"; got != want {
		t.Errorf("bakery n=2/PSO root, monitor state 3: key %s, want %s", got, want)
	}
}
