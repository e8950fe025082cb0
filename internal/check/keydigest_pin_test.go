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
// StateKey codec version 1, checkpoint schema v6 and serve identity v4
// all assume those bytes never drift, and a change to the encoding that
// keeps the partition would pass every count-based test. The subjects cover the
// three memory models, an orbit-canonical (symmetry-reduced) encoding,
// recoverable locks under a crash budget (recovery frames, durable locals
// and the folded crash count) and a reorder-bounded run (buffer ages).
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
		{"peterson n=2/PSO/symmetry", mutex("peterson", locks.NewPeterson, 2), machine.PSO, check.Opts{Symmetry: true},
			319, "9a0e82bb17b52e314a44146ce254402af8a17833e2c97abde0500330242f1843"},
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
	if check.CheckpointVersion != 6 {
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
