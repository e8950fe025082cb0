package machine

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"tradingfences/internal/lang"
)

// Fingerprint returns a canonical encoding of the configuration's
// *behavioural* state: memory contents, every process's control state, and
// every write buffer (in semantic order). Cost-accounting state (knowledge
// caches, last-committer table, statistics) is deliberately excluded — it
// never influences control flow, so two configurations with equal
// fingerprints generate identical execution trees.
//
// No production code keys on it: the binary StateKey (Config.StateKey) is
// the one keying. Fingerprint is the tests' reference keying, an
// independent string encoding whose state partition the binary key must
// reproduce.
//
// All processes are settled (pending local computation executed) first, so
// that fingerprints are insensitive to the interpreter's lazy evaluation.
func (c *Config) Fingerprint() (string, error) {
	var b strings.Builder
	b.Grow(256)
	for p := 0; p < c.n; p++ {
		if !c.procs[p].Halted() {
			if _, _, err := c.procs[p].NextOp(); err != nil {
				return "", err
			}
		}
	}
	// Memory: only non-zero registers, in register order (registers are
	// allocated contiguously from 0, and mem is dense over the layout).
	size := Reg(c.lay.Size())
	for r := Reg(0); r < size; r++ {
		if v := c.memAt(r); v != 0 {
			fmt.Fprintf(&b, "m%d=%d,", r, v)
		}
	}
	for p := 0; p < c.n; p++ {
		fmt.Fprintf(&b, "#p%d:", p)
		c.procs[p].AppendFingerprint(&b)
		for _, w := range c.wbs[p].entries() {
			fmt.Fprintf(&b, "w%d=%d,", w.Reg, w.Val)
		}
	}
	return b.String(), nil
}

// IdentityFingerprint returns a stable hash of the configuration's static
// definition: memory model, process count, layout size and every process's
// program listing. Unlike Fingerprint — the tests' reference keying of
// dynamic state, canonical only within one OS process — the
// identity fingerprint is reproducible across runs and builds, so witness
// artifacts use it to detect subject drift before replaying a schedule.
func (c *Config) IdentityFingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%d|%d|", c.model, c.n, c.lay.Size())
	for p := 0; p < c.n; p++ {
		io.WriteString(h, lang.Format(c.procs[p].Program()))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
