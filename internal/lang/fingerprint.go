package lang

import (
	"fmt"
	"strings"
)

// AppendFingerprint writes a canonical encoding of the process's control
// state — program position, loop nesting, locals, and final value — into b.
// Two states with equal fingerprints behave identically under identical
// future schedules. Callers must settle the state first (call NextOp) so
// that pending local computation does not make semantically equal states
// look different.
//
// No production code keys on it: AppendStateKey is the one keying. It is
// the tests' reference keying — an independent encoding, by name and by
// address, that the binary key's state partition is checked against
// (machine.Config.Fingerprint).
func (s *ProcState) AppendFingerprint(b *strings.Builder) {
	if s.halted {
		fmt.Fprintf(b, "H%d", s.retValue)
		return
	}
	for _, f := range s.frames {
		// The statement slice's identity (its backing array) uniquely
		// identifies the program point, since ASTs are immutable and
		// shared.
		if len(f.blk.stmts) > 0 {
			fmt.Fprintf(b, "|%p:%d", &f.blk.stmts[0], f.idx)
		} else {
			fmt.Fprintf(b, "|e:%d", f.idx)
		}
		if f.loop != nil {
			fmt.Fprintf(b, "L%p", f.loop.loop)
		}
	}
	b.WriteByte(';')
	for i, name := range s.env.ci.localNames {
		if s.env.isBound(i) {
			fmt.Fprintf(b, "%s=%d,", name, s.env.mem[i])
		}
	}
}
