package synth

import (
	"fmt"

	"tradingfences/internal/lang"
	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
)

// Site is one candidate fence position in a lock's statement fragments.
// Candidate sites are the positions where a fence can order something:
// after every shared write, plus wherever the original algorithm already
// had a fence (which covers fences at block boundaries not preceded by a
// write). Site IDs are assigned in a deterministic walk order — doorway,
// waiting remainder, release, recursing into branches and loop bodies in
// source order — so the same lock always yields the same numbering.
type Site struct {
	// ID is the site's bit position in a Placement.
	ID int
	// Frag names the fragment the site lives in: "doorway", "acquire"
	// (locks without a declared doorway), "waiting", or "release".
	Frag string
	// Desc locates the site for humans, e.g. `after write((2 + me), 1)`.
	Desc string
}

// maxLatticeSites bounds the placement bitmask width.
const maxLatticeSites = 64

// walker rebuilds lock fragments while assigning site IDs. In collect mode
// it records Site metadata; otherwise it emits a fence at exactly the
// sites selected by mask.
type walker struct {
	mask    Placement
	collect bool
	sites   []Site
	next    int
	err     error
}

// boundary registers the candidate site at the current position and
// reports whether the mask fences it. after is the statement the site
// follows (nil for a site at the start of a block).
func (w *walker) boundary(frag string, after lang.Stmt) bool {
	id := w.next
	w.next++
	if id >= maxLatticeSites && w.err == nil {
		w.err = fmt.Errorf("synth: more than %d candidate fence sites", maxLatticeSites)
	}
	if w.collect {
		desc := "at block start"
		if after != nil {
			desc = "after " + after.String()
		}
		w.sites = append(w.sites, Site{ID: id, Frag: frag, Desc: desc})
	}
	return w.mask.Contains(id)
}

// block rebuilds one statement list. Runs of consecutive fences collapse
// into a single candidate site; a site after a write is a candidate even
// if the original program had no fence there.
func (w *walker) block(frag string, stmts []lang.Stmt) []lang.Stmt {
	out := make([]lang.Stmt, 0, len(stmts))
	i := 0
	// A fence run at the very start of a block is its own site (it does
	// not follow a write in this block).
	if i < len(stmts) {
		if _, ok := stmts[i].(*lang.FenceStmt); ok {
			for i < len(stmts) {
				if _, ok := stmts[i].(*lang.FenceStmt); !ok {
					break
				}
				i++
			}
			if w.boundary(frag, nil) {
				out = append(out, lang.Fence())
			}
		}
	}
	for ; i < len(stmts); i++ {
		s := stmts[i]
		switch t := s.(type) {
		case *lang.FenceStmt:
			// Unreachable by construction (consumed by lookahead below),
			// but keep the walk total.
			continue
		case *lang.IfStmt:
			out = append(out, &lang.IfStmt{
				Cond: t.Cond,
				Then: w.block(frag, t.Then),
				Else: w.block(frag, t.Else),
			})
		case *lang.WhileStmt:
			out = append(out, &lang.WhileStmt{
				Cond: t.Cond,
				Body: w.block(frag, t.Body),
			})
		default:
			out = append(out, s)
		}
		_, isWrite := s.(*lang.WriteStmt)
		hadFence := false
		for i+1 < len(stmts) {
			if _, ok := stmts[i+1].(*lang.FenceStmt); !ok {
				break
			}
			hadFence = true
			i++
		}
		if isWrite || hadFence {
			if w.boundary(frag, s) {
				out = append(out, lang.Fence())
			}
		}
	}
	return out
}

// rebuildLock walks a's fragments, either collecting sites or applying
// mask, and returns the rebuilt lock (nil in collect mode is never
// returned; callers in collect mode ignore it).
func (w *walker) rebuildLock(a *locks.Algorithm) (*locks.Algorithm, error) {
	var acquire []lang.Stmt
	split := 0
	if a.HasDoorway() {
		acquire = w.block("doorway", a.Doorway())
		split = len(acquire)
		acquire = append(acquire, w.block("waiting", a.Waiting())...)
	} else {
		acquire = w.block("acquire", a.Acquire())
	}
	release := w.block("release", a.Release())
	if w.err != nil {
		return nil, w.err
	}
	if w.next < maxLatticeSites && w.mask>>uint(w.next) != 0 {
		return nil, fmt.Errorf("synth: placement %s selects sites beyond the %d candidates of %s",
			w.mask, w.next, a.Name())
	}
	return locks.FromFragments(a.Name(), a.N(), acquire, release, split)
}

// Enumerate instantiates the lock on a scratch layout and returns its
// candidate fence sites in ID order.
func Enumerate(ctor locks.Constructor, n int) ([]Site, error) {
	lay := machine.NewLayout()
	a, err := ctor(lay, "lk", n)
	if err != nil {
		return nil, err
	}
	w := &walker{collect: true}
	if _, err := w.rebuildLock(a); err != nil {
		return nil, err
	}
	return w.sites, nil
}

// Constructor adapts a base lock constructor into one that strips every
// original fence and inserts fences at exactly the sites in p. The
// returned constructor has the standard locks.Constructor shape, so
// placements plug into check.NewMutexSubject and the measurement harness
// unchanged.
func Constructor(ctor locks.Constructor, p Placement) locks.Constructor {
	return func(lay *machine.Layout, name string, n int) (*locks.Algorithm, error) {
		a, err := ctor(lay, name, n)
		if err != nil {
			return nil, err
		}
		w := &walker{mask: p}
		return w.rebuildLock(a)
	}
}

// StripFences removes every fence from the lock: the zero placement, the
// synthesis search's bottom element.
func StripFences(ctor locks.Constructor) locks.Constructor {
	return Constructor(ctor, 0)
}
