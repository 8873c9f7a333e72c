// Package prof is a miniature stand-in for ucudnn/internal/prof with
// the open/close hook surface phasepair matches on, so the fixture does
// not import the real module.
package prof

type Kind int

func Enter() int64                   { return 1 }
func Exit(k Kind, start int64)       {}
func Next(k Kind, start int64) int64 { return 1 }
func Begin(kernel string) int64      { return 1 }
func End(start int64)                {}
