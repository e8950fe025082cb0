package run

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrRecovered is the sentinel matched (via errors.Is) by every
// *RecoveredError.
var ErrRecovered = errors.New("run: recovered from internal panic")

// RecoveredError converts a panic caught at a pipeline boundary into a
// structured error, preserving the panic value and the stack for
// diagnosis. A recovered panic always indicates a bug (or a hostile input
// reaching one); converting it to an error keeps long batch runs and the
// CLIs alive.
type RecoveredError struct {
	// Op names the operation that panicked (e.g. "check mutex").
	Op string
	// Panic is the recovered panic value.
	Panic any
	// Stack is the stack trace captured at recovery.
	Stack []byte
}

func (e *RecoveredError) Error() string {
	return fmt.Sprintf("run: %s: recovered from panic: %v", e.Op, e.Panic)
}

// Is makes errors.Is(err, ErrRecovered) true for every RecoveredError.
func (e *RecoveredError) Is(target error) bool { return target == ErrRecovered }

// Unwrap exposes a wrapped error panic value (panic(err)) to errors.Is/As.
func (e *RecoveredError) Unwrap() error {
	if err, ok := e.Panic.(error); ok {
		return err
	}
	return nil
}

// Recover converts an in-flight panic into a *RecoveredError stored in
// *errp. Use as the first deferred call of a facade entry point:
//
//	func CheckMutexCtx(...) (v *MutexVerdict, err error) {
//		defer run.Recover("check mutex", &err)
//		...
//	}
//
// A nil panic (normal return) leaves *errp untouched.
func Recover(op string, errp *error) {
	if r := recover(); r != nil {
		*errp = &RecoveredError{Op: op, Panic: r, Stack: debug.Stack()}
	}
}
