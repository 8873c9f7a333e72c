package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"ucudnn/internal/analysis/cfg"
)

// PhasePair checks that every prof window opened is closed on every
// path: Enter's token must reach Exit or Next, Begin's must reach End.
// (Parallel launches need no pairing: prof.Launch opens and closes its
// worker windows itself.) A window left open skews every later
// attribution in the profile — the cost model silently shifts one
// phase's time into another, which is worse than no profile at all.
//
// The check is flow-sensitive over the control-flow graph: an early
// return between open and close is a leak on that path even if the
// fall-through path closes; closing in one arm of an if but not the
// other leaks. A close in a defer (direct or in a deferred closure)
// covers every exit, including panics, and is the recommended shape.
// Paths that end in panic are otherwise exempt — defers are the only
// panic-safe close, so requiring an inline close there would be
// unsatisfiable.
//
// Tokens the analyzer cannot follow — stored in a struct, passed to
// another function, returned, captured by a non-deferred closure — are
// conservatively untracked rather than flagged. Mismatched pairs
// (Exit closing a Begin token) and discarded tokens (result of Enter
// unused) are flagged where they happen.
//
// The prof package itself is exempt: it manufactures the tokens.
var PhasePair = &Analyzer{
	Name: "phasepair",
	Doc:  "every prof.Enter/Begin must be paired with its close on all paths",
	Run:  runPhasePair,
}

// profOpens maps opener name to the closer names that pair with it.
var profOpens = map[string][]string{
	"Enter": {"Exit", "Next"},
	"Begin": {"End"},
}

// profCloses maps closer name to (token argument index, opener it
// pairs with, whether it reopens).
var profCloses = map[string]struct {
	tokIdx  int
	opener  string
	reopens bool
}{
	"Exit": {1, "Enter", false},
	"Next": {1, "Enter", true},
	"End":  {0, "Begin", false},
}

func runPhasePair(pass *Pass) error {
	if pass.Pkg != nil && pass.Pkg.Name() == "prof" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, scope := range scopesIn(fd.Body) {
				analyzePairs(pass, scope)
			}
		}
	}
	return nil
}

// scopesIn returns body plus the bodies of all function literals inside
// it; each is analyzed as an independent token scope.
func scopesIn(body *ast.BlockStmt) []*ast.BlockStmt {
	out := []*ast.BlockStmt{body}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit.Body)
		}
		return true
	})
	return out
}

// openInfo tracks one live token: where it was opened and by what.
type openInfo struct {
	pos    token.Pos
	opener string
}

func analyzePairs(pass *Pass, body *ast.BlockStmt) {
	parents := parentMap(body)
	deferredLits := deferredClosures(body)
	escaped := escapedTokens(pass, body, parents, deferredLits)
	closedByDefer := deferClosedVars(pass, body)

	g := cfg.New(body, pass.TypesInfo)
	in := map[*cfg.Block]map[*types.Var]openInfo{}
	for _, b := range g.Blocks {
		in[b] = map[*types.Var]openInfo{}
	}

	reported := map[token.Pos]bool{}
	transfer := func(b *cfg.Block, state map[*types.Var]openInfo, final bool) map[*types.Var]openInfo {
		out := map[*types.Var]openInfo{}
		for v, inf := range state {
			out[v] = inf
		}
		for _, node := range b.Nodes {
			if _, ok := node.(*ast.DeferStmt); ok {
				continue
			}
			ast.Inspect(node, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.FuncLit:
					return false
				case *ast.GoStmt, *ast.DeferStmt:
					return false
				case *ast.CallExpr:
					pairStep(pass, x, parents, out, final, reported)
				}
				return true
			})
		}
		return out
	}

	work := []*cfg.Block{g.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := transfer(b, in[b], false)
		for _, s := range b.Succs {
			if joinOpen(in[s], out) {
				work = append(work, s)
			}
		}
	}
	for _, b := range g.Blocks {
		transfer(b, in[b], true)
	}

	// Anything still open at the synthetic exit leaks on some path,
	// unless a defer closes it or it escaped our tracking.
	type leak struct {
		pos    token.Pos
		opener string
	}
	var leaks []leak
	for v, inf := range in[g.Exit] {
		if escaped[v] || closedByDefer[v] {
			continue
		}
		leaks = append(leaks, leak{pos: inf.pos, opener: inf.opener})
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
	for _, l := range leaks {
		pass.Reportf(l.pos,
			"prof.%s token is open on a path to return; close it with prof.%s on every path (a deferred close covers panics too)",
			l.opener, closersList(l.opener))
	}
}

// pairStep interprets one call against the open-token state.
func pairStep(pass *Pass, call *ast.CallExpr, parents map[ast.Node]ast.Node, open map[*types.Var]openInfo, final bool, reported map[token.Pos]bool) {
	name := profCallName(pass.TypesInfo, call)
	if name == "" {
		return
	}

	if cl, isClose := profCloses[name]; isClose {
		if cl.tokIdx < len(call.Args) {
			if v := localVar(pass.TypesInfo, call.Args[cl.tokIdx]); v != nil {
				if inf, ok := open[v]; ok {
					if inf.opener != cl.opener && final && !reported[call.Pos()] {
						reported[call.Pos()] = true
						pass.Reportf(call.Pos(),
							"prof.%s closes a token opened by prof.%s; pair %s with prof.%s",
							name, inf.opener, inf.opener, closersList(inf.opener))
					}
					delete(open, v)
				}
			}
		}
		if cl.reopens {
			if v := assignTarget(parents, call); v != nil {
				open[varOf(pass.TypesInfo, v)] = openInfo{pos: call.Pos(), opener: cl.opener}
			}
		}
		return
	}

	if _, isOpen := profOpens[name]; !isOpen {
		return
	}
	if tgt := assignTarget(parents, call); tgt != nil {
		if tgt.Name == "_" {
			if final && !reported[call.Pos()] {
				reported[call.Pos()] = true
				pass.Reportf(call.Pos(),
					"prof.%s token is discarded; it must be closed with prof.%s", name, closersList(name))
			}
			return
		}
		if v := varOf(pass.TypesInfo, tgt); v != nil {
			if old, ok := open[v]; ok {
				// Keep the earliest open site for deterministic reports
				// when a var is opened on two joined paths.
				if old.pos <= call.Pos() {
					return
				}
			}
			open[v] = openInfo{pos: call.Pos(), opener: name}
		}
		return
	}
	// Result not captured at all: the window can never close.
	if final && !reported[call.Pos()] {
		reported[call.Pos()] = true
		pass.Reportf(call.Pos(),
			"prof.%s token is discarded; it must be closed with prof.%s", name, closersList(name))
	}
}

// joinOpen unions src into dst (may-open join), keeping the earliest
// open site per var; reports whether dst changed.
func joinOpen(dst, src map[*types.Var]openInfo) bool {
	changed := false
	for v, inf := range src {
		old, ok := dst[v]
		if !ok || inf.pos < old.pos {
			dst[v] = inf
			changed = true
		}
	}
	return changed
}

// profCallName returns the prof function name the call targets, or "".
// The prof package is matched by final import-path element so fixtures
// can use a stand-in.
func profCallName(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || pkgPathElem(fn.Pkg().Path()) != "prof" {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return ""
	}
	return fn.Name()
}

// localVar resolves e to a local variable object, or nil.
func localVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.ObjectOf(id).(*types.Var)
	if v == nil || v.IsField() {
		return nil
	}
	return v
}

func varOf(info *types.Info, id *ast.Ident) *types.Var {
	v, _ := info.ObjectOf(id).(*types.Var)
	return v
}

// assignTarget returns the identifier call's result is assigned to, if
// its direct parent is a 1:1 assignment; nil otherwise.
func assignTarget(parents map[ast.Node]ast.Node, call *ast.CallExpr) *ast.Ident {
	par := parents[call]
	for {
		pe, ok := par.(*ast.ParenExpr)
		if !ok {
			break
		}
		par = parents[pe]
	}
	switch par := par.(type) {
	case *ast.AssignStmt:
		if len(par.Rhs) != len(par.Lhs) {
			return nil
		}
		for i, rhs := range par.Rhs {
			if ast.Unparen(rhs) == call {
				id, _ := par.Lhs[i].(*ast.Ident)
				return id
			}
		}
	case *ast.ValueSpec:
		for i, v := range par.Values {
			if ast.Unparen(v) == call && i < len(par.Names) {
				return par.Names[i]
			}
		}
	}
	return nil
}

// closersList renders the closers that pair with an opener ("Exit/Next").
func closersList(opener string) string {
	cs := profOpens[opener]
	out := ""
	for i, c := range cs {
		if i > 0 {
			out += "/prof."
		}
		out += c
	}
	return out
}

// parentMap records each node's parent within body.
func parentMap(body *ast.BlockStmt) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// deferredClosures returns the function literals invoked directly by a
// defer statement; token closes inside them cover every exit.
func deferredClosures(body *ast.BlockStmt) map[*ast.FuncLit]bool {
	out := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok {
			if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
				out[lit] = true
			}
		}
		return true
	})
	return out
}

// escapedTokens finds local variables whose value flows somewhere the
// analyzer cannot follow; they are never reported. A use is benign if
// it is the token argument of a close call, the target of an
// open-call assignment, or a comparison.
func escapedTokens(pass *Pass, body *ast.BlockStmt, parents map[ast.Node]ast.Node, deferredLits map[*ast.FuncLit]bool) map[*types.Var]bool {
	escaped := map[*types.Var]bool{}
	// Only bodies of THIS scope: nested literals are their own scopes,
	// but a use of an outer var inside a non-deferred literal is a
	// capture and escapes the outer scope's tracking.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v := localVar(pass.TypesInfo, id)
		if v == nil {
			return true
		}
		if lit := enclosingLit(parents, id, body); lit != nil && !deferredLits[lit] {
			escaped[v] = true
			return true
		}
		if !benignUse(pass, parents, id) {
			escaped[v] = true
		}
		return true
	})
	return escaped
}

// enclosingLit returns the innermost function literal containing n, or
// nil if n belongs to the scope root itself. Literals nested inside
// another literal always escape (only the immediate deferred closure
// is a close context).
func enclosingLit(parents map[ast.Node]ast.Node, n ast.Node, root ast.Node) *ast.FuncLit {
	for cur := parents[n]; cur != nil && cur != root; cur = parents[cur] {
		if lit, ok := cur.(*ast.FuncLit); ok {
			return lit
		}
	}
	return nil
}

// benignUse reports whether the identifier's immediate context keeps
// the token trackable.
func benignUse(pass *Pass, parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	par := parents[id]
	for {
		pe, ok := par.(*ast.ParenExpr)
		if !ok {
			break
		}
		par = parents[pe]
	}
	switch par := par.(type) {
	case *ast.CallExpr:
		// Token argument of a close call is the pairing itself.
		if name := profCallName(pass.TypesInfo, par); name != "" {
			if cl, ok := profCloses[name]; ok && cl.tokIdx < len(par.Args) &&
				ast.Unparen(par.Args[cl.tokIdx]) == id {
				return true
			}
		}
		return false
	case *ast.AssignStmt:
		for i, lhs := range par.Lhs {
			if lhs != id {
				continue
			}
			// Target of an open/reopen call: tracked by the dataflow.
			if len(par.Rhs) == len(par.Lhs) {
				if call, ok := ast.Unparen(par.Rhs[i]).(*ast.CallExpr); ok {
					name := profCallName(pass.TypesInfo, call)
					if _, isOpen := profOpens[name]; isOpen {
						return true
					}
					if cl, ok := profCloses[name]; ok && cl.reopens {
						return true
					}
				}
			}
			return false
		}
		// Read on the RHS: benign only when discarded into blank —
		// `_ = t` silences "declared and not used" without moving the
		// token anywhere.
		for i, rhs := range par.Rhs {
			if ast.Unparen(rhs) != id || i >= len(par.Lhs) {
				continue
			}
			if lhs, ok := par.Lhs[i].(*ast.Ident); ok && lhs.Name == "_" {
				return true
			}
		}
		return false
	case *ast.BinaryExpr:
		return true // comparisons don't move the token
	case *ast.ValueSpec:
		for i, name := range par.Names {
			if name != id {
				continue
			}
			if len(par.Values) == 0 {
				return true // plain declaration
			}
			if i < len(par.Values) {
				if call, ok := ast.Unparen(par.Values[i]).(*ast.CallExpr); ok {
					if _, isOpen := profOpens[profCallName(pass.TypesInfo, call)]; isOpen {
						return true
					}
				}
			}
			return false
		}
		return false // read inside the initializer expression
	default:
		return false
	}
}

// deferClosedVars collects token variables closed by a defer — either
// a direct deferred close call or a close inside a deferred closure.
func deferClosedVars(pass *Pass, body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	record := func(call *ast.CallExpr) {
		name := profCallName(pass.TypesInfo, call)
		cl, ok := profCloses[name]
		if !ok || cl.tokIdx >= len(call.Args) {
			return
		}
		if v := localVar(pass.TypesInfo, call.Args[cl.tokIdx]); v != nil {
			out[v] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(x ast.Node) bool {
				if c, ok := x.(*ast.CallExpr); ok {
					record(c)
				}
				return true
			})
			return true
		}
		record(ds.Call)
		return true
	})
	return out
}
