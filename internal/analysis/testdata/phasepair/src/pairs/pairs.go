// Package pairs is a phasepair fixture: every opened prof window must
// close on every path.
package pairs

import "prof"

const k prof.Kind = 1

// balanced closes on the straight path: clean.
func balanced() {
	t := prof.Enter()
	work()
	prof.Exit(k, t)
}

// deferred closes via defer: covers every exit including panics.
func deferred() {
	t := prof.Begin("gemm")
	defer prof.End(t)
	if cond() {
		return
	}
	work()
}

// deferredClosure closes inside a deferred closure: also covered.
func deferredClosure() {
	t := prof.Enter()
	defer func() {
		prof.Exit(k, t)
	}()
	work()
}

// oocCharge mirrors the out-of-core executor's transfer charge: early
// return before Enter is fine, the opened window closes on the one path.
func oocCharge(bytes int64) {
	if bytes <= 0 {
		return
	}
	t := prof.Enter()
	work()
	prof.Exit(k, t)
}

// earlyReturn leaks on the error path.
func earlyReturn() error {
	t := prof.Enter() // want `prof.Enter token is open on a path to return; close it with prof.Exit/prof.Next on every path`
	if cond() {
		return errFixture
	}
	prof.Exit(k, t)
	return nil
}

// oneArm closes in only one branch.
func oneArm() {
	t := prof.Begin("fft") // want `prof.Begin token is open on a path to return; close it with prof.End on every path`
	if cond() {
		prof.End(t)
	}
}

// nextChain reopens with Next; the final token still needs a close.
func nextChain() {
	t := prof.Enter()
	work()
	t = prof.Next(k, t)
	work()
	prof.Exit(k, t)
}

// nextLeaks reopens but never closes the second window.
func nextLeaks() {
	t := prof.Enter()
	work()
	t = prof.Next(k, t) // want `prof.Enter token is open on a path to return`
	work()
	_ = t
}

// panicPath ends in panic: defers are the panic-safe close, so the
// inline-close requirement does not apply to that path.
func panicPath() {
	t := prof.Enter()
	if cond() {
		panic("fixture")
	}
	prof.Exit(k, t)
}

// mismatched closes an Enter token with End.
func mismatched() {
	t := prof.Enter()
	prof.End(t) // want `prof.End closes a token opened by prof.Enter; pair Enter with prof.Exit/prof.Next`
	prof.Exit(k, t)
}

// discarded never captures the token.
func discarded() {
	prof.Enter()           // want `prof.Enter token is discarded; it must be closed with prof.Exit/prof.Next`
	_ = prof.Begin("wino") // want `prof.Begin token is discarded; it must be closed with prof.End`
	work()
}

// closureScope pairs a window inside a worker closure: each closure
// body is a scope of its own.
func closureScope() {
	run(func() {
		t := prof.Enter()
		work()
		prof.Exit(k, t)
	})
}

// closureLeaks opens a window inside the closure and loses it on the
// early return.
func closureLeaks() {
	run(func() {
		t := prof.Enter() // want `prof.Enter token is open on a path to return`
		if cond() {
			return
		}
		prof.Exit(k, t)
	})
}

// escaping tokens are conservatively untracked, not flagged.
type holder struct{ tok int64 }

func escapes(h *holder) {
	t := prof.Enter()
	h.tok = t
}

func escapesCall() {
	t := prof.Begin("conv")
	stash(t)
}

// allowed suppresses a real leak with a justification.
func allowed() {
	//ucudnn:allow phasepair -- window is closed by the caller via package state in this legacy path
	t := prof.Enter()
	work()
	_ = t
}

func work()         {}
func cond() bool    { return false }
func run(f func())  { f() }
func stash(t int64) {}

var errFixture = errOf("fixture")

type errOf string

func (e errOf) Error() string { return string(e) }
