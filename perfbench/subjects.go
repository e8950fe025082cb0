package main

import (
	"context"
	"fmt"

	tf "tradingfences"
	"tradingfences/internal/check"
	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
	"tradingfences/internal/rme"
)

// lockRef names one checked system: a mutex lock spec, or a recoverable
// lock run under the RME workload, at n processes and one passage each.
type lockRef struct {
	spec    tf.LockSpec
	rme     string // recoverable lock name; "" for a mutex lock
	n       int
	model   tf.MemoryModel
	crashes int // adversarial crash budget
}

func (l lockRef) String() string {
	name := l.rme
	if name == "" {
		name = l.spec.String()
	}
	s := fmt.Sprintf("%s/n%d/%v", name, l.n, l.model)
	if l.crashes > 0 {
		s += fmt.Sprintf("/c%d", l.crashes)
	}
	return s
}

func (l lockRef) faults() *tf.FaultPlan {
	if l.crashes == 0 {
		return nil
	}
	return &tf.FaultPlan{MaxCrashes: l.crashes}
}

// checkFacade runs the root facade's check for the lock.
func (l lockRef) checkFacade(ctx context.Context, opts tf.CheckOptions) (*tf.MutexVerdict, error) {
	opts.Faults = l.faults()
	if l.rme != "" {
		return tf.CheckRMECtx(ctx, l.rme, l.n, 1, l.model, opts)
	}
	return tf.CheckMutexCtx(ctx, l.spec, l.n, 1, l.model, opts)
}

// subject builds the instrumented check.Subject the facade would build.
func (l lockRef) subject() (*check.Subject, error) {
	if l.rme != "" {
		return rme.NewSubject(l.rme, l.n, 1)
	}
	ctor, err := ctorOf(l.spec)
	if err != nil {
		return nil, err
	}
	return check.NewMutexSubject(l.spec.String(), ctor, l.n, 1)
}

// ctorOf maps the lock kinds the benchmark uses to their constructors.
func ctorOf(spec tf.LockSpec) (locks.Constructor, error) {
	switch spec.Kind {
	case tf.Bakery:
		return locks.NewBakery, nil
	case tf.BakeryTSO:
		return locks.NewBakeryTSO, nil
	case tf.BakeryNoFence:
		return locks.NewBakeryNoFence, nil
	case tf.Peterson:
		return locks.NewPeterson, nil
	case tf.PetersonTSO:
		return locks.NewPetersonTSO, nil
	case tf.PetersonNoFence:
		return locks.NewPetersonNoFence, nil
	case tf.Tournament:
		return locks.NewTournament, nil
	case tf.GT:
		f := spec.F
		return func(l *machine.Layout, nm string, n int) (*locks.Algorithm, error) {
			return locks.NewGT(l, nm, n, f)
		}, nil
	}
	return nil, fmt.Errorf("perfbench: no constructor for lock %v", spec)
}

func machineModel(m tf.MemoryModel) machine.Model {
	switch m {
	case tf.SC:
		return machine.SC
	case tf.TSO:
		return machine.TSO
	}
	return machine.PSO
}
