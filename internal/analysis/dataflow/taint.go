package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Fact evaluates the abstract value of an expression at a source
// position. The position matters because a bound check between a
// definition and a use promotes Tainted to Bounded.
func (a *Analysis) Fact(e ast.Expr, flow *FuncFlow, at token.Pos) Fact {
	return a.fact(e, flow, at, nil, make(map[token.Pos]bool))
}

// fact is Fact with an assumption environment (used when computing call
// summaries with a parameter seeded Tainted) and a cycle guard.
func (a *Analysis) fact(e ast.Expr, flow *FuncFlow, at token.Pos, assume map[types.Object]Fact, seen map[token.Pos]bool) Fact {
	f := a.rawFact(e, flow, at, assume, seen)
	// A value one byte wide cannot express a dangerous count: cap it.
	if f == Tainted && byteSized(a.pass.TypesInfo.TypeOf(e)) {
		return Bounded
	}
	return f
}

func (a *Analysis) rawFact(e ast.Expr, flow *FuncFlow, at token.Pos, assume map[types.Object]Fact, seen map[token.Pos]bool) Fact {
	info := a.pass.TypesInfo
	switch e := e.(type) {
	case *ast.ParenExpr:
		return a.fact(e.X, flow, at, assume, seen)
	case *ast.Ident:
		return a.identFact(e, flow, at, assume, seen)
	case *ast.BasicLit:
		return Clean
	case *ast.SelectorExpr:
		// A []byte field is a wire buffer: the decoder structs here hold
		// exactly the raw payload (trace.decoder.data and friends).
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal && isByteSlice(sel.Type()) {
			return Tainted
		}
		return Clean
	case *ast.IndexExpr:
		return a.fact(e.X, flow, at, assume, seen) // element of a tainted container
	case *ast.SliceExpr:
		return a.fact(e.X, flow, at, assume, seen)
	case *ast.StarExpr:
		return a.fact(e.X, flow, at, assume, seen)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return Clean
		}
		return a.fact(e.X, flow, at, assume, seen)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return Clean // booleans carry no count
		}
		return join(a.fact(e.X, flow, at, assume, seen), a.fact(e.Y, flow, at, assume, seen))
	case *ast.CallExpr:
		return a.callFact(e, flow, at, assume, seen)
	case *ast.CompositeLit, *ast.FuncLit, *ast.TypeAssertExpr:
		return Clean
	}
	return Clean
}

// identFact resolves a variable's fact from its last definition before
// the position, then applies any intervening bound check.
func (a *Analysis) identFact(id *ast.Ident, flow *FuncFlow, at token.Pos, assume map[types.Object]Fact, seen map[token.Pos]bool) Fact {
	obj, ok := a.pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok || obj.IsField() {
		return Clean
	}
	return a.objFact(obj, flow, at, assume, seen)
}

// objFact is identFact keyed directly on the object.
func (a *Analysis) objFact(obj *types.Var, flow *FuncFlow, at token.Pos, assume map[types.Object]Fact, seen map[token.Pos]bool) Fact {
	if f, ok := assume[obj]; ok {
		if f == Tainted && flow.guardedBetween(obj, flow.start, at) {
			return Bounded
		}
		return f
	}
	// Wire buffers arrive as []byte parameters; everything read out of
	// one is attacker-controlled.
	if isByteSlice(obj.Type()) && a.isParam(flow, obj) {
		return Tainted
	}
	events, inFlow := flow.byObj[obj]
	if !inFlow {
		return Clean // package-level or foreign variable
	}
	var last *Event
	for _, i := range events {
		ev := &flow.Events[i]
		if ev.Kind != Def {
			continue
		}
		if ev.Pos < at {
			last = ev
		}
	}
	if last == nil {
		// Use positioned before any def (loop-carried): join every def.
		f := Clean
		for _, i := range events {
			ev := &flow.Events[i]
			if ev.Kind == Def {
				f = join(f, a.defFact(ev, flow, assume, seen))
			}
		}
		return f
	}
	f := a.defFact(last, flow, assume, seen)
	if f == Tainted && flow.guardedBetween(obj, last.Pos, at) {
		return Bounded
	}
	return f
}

// defFact evaluates the value a definition binds.
func (a *Analysis) defFact(ev *Event, flow *FuncFlow, assume map[types.Object]Fact, seen map[token.Pos]bool) Fact {
	if ev.Rhs == nil {
		return Clean // parameter, var decl without value, or ++/--
	}
	if seen[ev.Pos] {
		return Clean // loop-carried cycle: stay optimistic
	}
	seen[ev.Pos] = true
	defer delete(seen, ev.Pos)
	f := a.fact(ev.Rhs, flow, ev.Pos, assume, seen)
	if ev.Compound {
		// x += rhs keeps x's previous influence too; the recursive object
		// lookup bottoms out at the cycle guard.
		if v, ok := ev.Obj.(*types.Var); ok {
			f = join(f, a.objFact(v, flow, ev.Pos, assume, seen))
		}
	}
	return f
}

// callFact evaluates calls: conversions, builtins, the wire-decoding
// sources, and same-package calls through their summaries.
func (a *Analysis) callFact(call *ast.CallExpr, flow *FuncFlow, at token.Pos, assume map[types.Object]Fact, seen map[token.Pos]bool) Fact {
	info := a.pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return a.fact(call.Args[0], flow, at, assume, seen) // conversion
		}
		return Clean
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return a.builtinFact(id.Name, call, flow, at, assume, seen)
		}
	}
	callee := calleeFunc(info, call)
	if callee == nil {
		return Clean
	}
	if pkg := callee.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "encoding/binary":
			switch callee.Name() {
			case "Uint16", "Uint32", "Uint64", "Varint", "Uvarint":
				return Tainted
			}
		case "io":
			if callee.Name() == "ReadAll" {
				return Tainted
			}
		case "os":
			if callee.Name() == "ReadFile" {
				return Tainted
			}
		}
	}
	s := a.summaries[callee]
	if s == nil && a.foreign != nil {
		s = a.foreign(callee)
	}
	if s != nil {
		f := Clean
		if s.ReturnsTainted {
			f = Tainted
		}
		for i, arg := range call.Args {
			if i < len(s.PassesThrough) && s.PassesThrough[i] {
				f = join(f, a.fact(arg, flow, at, assume, seen))
			}
		}
		return f
	}
	return Clean
}

func (a *Analysis) builtinFact(name string, call *ast.CallExpr, flow *FuncFlow, at token.Pos, assume map[types.Object]Fact, seen map[token.Pos]bool) Fact {
	switch name {
	case "len", "cap":
		// The length of a buffer measures bytes actually present — the
		// trusted quantity wire counts must be checked against.
		return Clean
	case "make", "new", "copy":
		return Clean
	case "min":
		// min(wireCount, trustedLimit) is a clamp: the result cannot
		// exceed the cleanest operand.
		worst, best := Clean, Tainted
		for _, arg := range call.Args {
			f := a.fact(arg, flow, at, assume, seen)
			worst = join(worst, f)
			if f < best {
				best = f
			}
		}
		if worst == Tainted && best < Tainted {
			return Bounded
		}
		return worst
	case "append":
		f := Clean
		for _, arg := range call.Args {
			f = join(f, a.fact(arg, flow, at, assume, seen))
		}
		return f
	}
	// max and anything else: join of the operands.
	f := Clean
	for _, arg := range call.Args {
		f = join(f, a.fact(arg, flow, at, assume, seen))
	}
	return f
}

// calleeFunc resolves the *types.Func a call invokes, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func (a *Analysis) isParam(flow *FuncFlow, obj types.Object) bool {
	for _, p := range flow.params {
		if p == obj {
			return true
		}
	}
	return false
}

// ---- summaries ---------------------------------------------------------

// computeSummaries iterates the per-function summaries to a fixpoint:
// facts only climb the lattice, so termination is immediate once no
// summary changes in a round.
func (a *Analysis) computeSummaries() {
	for _, flow := range a.Flows {
		if flow.Fn == nil {
			continue
		}
		n := len(flow.params)
		s := &Summary{PassesThrough: make([]bool, n), UnguardedParams: make([]bool, n), ParamNames: make([]string, n)}
		for i, p := range flow.params {
			s.ParamNames[i] = p.Name()
		}
		a.summaries[flow.Fn] = s
	}
	for a.recompute() {
	}
}

// recompute runs one round of summary updates over every function and
// reports whether anything changed. NewProgram alternates it across
// packages until no package changes: the global fixpoint.
func (a *Analysis) recompute() bool {
	changed := false
	for _, flow := range a.Flows {
		if flow.Fn == nil {
			continue
		}
		if a.updateSummary(flow, a.summaries[flow.Fn]) {
			changed = true
		}
	}
	return changed
}

func (a *Analysis) updateSummary(flow *FuncFlow, s *Summary) bool {
	changed := false
	if !s.ReturnsTainted && a.returnFact(flow, nil) == Tainted {
		s.ReturnsTainted = true
		changed = true
	}
	for i, p := range flow.params {
		if s.ReturnsTainted {
			break // call results are already tainted regardless of args
		}
		if s.PassesThrough[i] {
			continue
		}
		assume := map[types.Object]Fact{p: Tainted}
		if a.returnFact(flow, assume) == Tainted {
			s.PassesThrough[i] = true
			changed = true
		}
	}
	for i, p := range flow.params {
		if s.UnguardedParams[i] {
			continue
		}
		assume := map[types.Object]Fact{p: Tainted}
		if a.paramReachesSink(flow, assume) {
			s.UnguardedParams[i] = true
			changed = true
		}
	}
	return changed
}

// returnFact joins the facts of every value the function can return.
func (a *Analysis) returnFact(flow *FuncFlow, assume map[types.Object]Fact) Fact {
	f := Clean
	walkSkippingFuncLits(flow.Decl.Body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		if len(ret.Results) == 0 {
			for obj := range flow.results {
				if v, ok := obj.(*types.Var); ok {
					f = join(f, a.objFact(v, flow, ret.Pos(), assume, make(map[token.Pos]bool)))
				}
			}
			return
		}
		for _, res := range ret.Results {
			f = join(f, a.fact(res, flow, ret.Pos(), assume, make(map[token.Pos]bool)))
		}
	})
	return f
}

// paramReachesSink reports whether, with the assumption applied, some
// sink in the function receives a Tainted value that it would not
// receive without the assumption (i.e. the taint is the parameter's).
func (a *Analysis) paramReachesSink(flow *FuncFlow, assume map[types.Object]Fact) bool {
	for _, sink := range flow.Sinks {
		at := sink.Val.Pos()
		if a.fact(sink.Val, flow, at, assume, make(map[token.Pos]bool)) != Tainted {
			continue
		}
		if a.fact(sink.Val, flow, at, nil, make(map[token.Pos]bool)) == Tainted {
			continue // tainted anyway: the finding belongs inside this function
		}
		return true
	}
	return false
}

// ---- type helpers ------------------------------------------------------

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}

func byteSized(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Uint8, types.Int8, types.Bool:
		return true
	}
	return false
}
