// Package dataflow is the intraprocedural dataflow layer under the
// wire-facing analyzers: def-use chains over the AST, a three-point
// abstract-value lattice (Clean < Bounded < Tainted) for values derived
// from untrusted wire input, and call summaries for functions within the
// same package, computed to a fixpoint.
//
// The model is deliberately coarse — flow sensitivity is approximated by
// source position (a bound check whose if-statement ends before a use
// dominates that use in the straight-line decoder code this repository
// writes), and struct fields are only tracked when they hold raw bytes.
// docs/STATIC_ANALYSIS.md spells out the approximations.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"rups/internal/analysis"
)

// Fact is a point in the taint lattice.
type Fact uint8

const (
	// Clean values carry no attacker influence.
	Clean Fact = iota
	// Bounded values derive from wire input but sit below a dominating
	// bound check (or are too narrow to matter, e.g. a single byte).
	Bounded
	// Tainted values derive from wire input with no bound applied:
	// letting one reach an allocation, an index, or a loop bound is the
	// trace.ReadFrom bug class.
	Tainted
)

// String names the fact for diagnostics and tests.
func (f Fact) String() string {
	switch f {
	case Bounded:
		return "bounded"
	case Tainted:
		return "tainted"
	default:
		return "clean"
	}
}

// join returns the least upper bound of two facts.
func join(a, b Fact) Fact {
	if a > b {
		return a
	}
	return b
}

// EventKind distinguishes definitions from uses in a def-use chain.
type EventKind uint8

const (
	// Def is a write: declaration, assignment, or compound assignment.
	Def EventKind = iota
	// Use is a read.
	Use
)

// Event is one definition or use of a function-local object.
type Event struct {
	Kind EventKind
	Obj  types.Object
	Pos  token.Pos
	// Rhs is the expression assigned at a Def; nil for parameters,
	// value-less declarations, and ++/--.
	Rhs ast.Expr
	// Compound marks x += y, x++ and friends: the new value joins the
	// previous one instead of replacing it.
	Compound bool
	// Container marks a range-value Def whose Rhs is the ranged
	// container, not the element value itself.
	Container bool
	// Block is the innermost block statement holding the event, used by
	// clients that need "same straight-line region" judgements.
	Block *ast.BlockStmt
}

// SinkKind classifies the places where a tainted integer does damage.
type SinkKind uint8

const (
	// SinkMake is a make() length or capacity argument.
	SinkMake SinkKind = iota
	// SinkIndex is a slice/array/string index expression.
	SinkIndex
	// SinkSliceBound is a low/high/max bound of a slice expression.
	SinkSliceBound
	// SinkLoopBound is an operand of a for-loop comparison or a
	// range-over-int operand.
	SinkLoopBound
)

// String names the sink for diagnostics.
func (k SinkKind) String() string {
	switch k {
	case SinkMake:
		return "make size"
	case SinkIndex:
		return "index"
	case SinkSliceBound:
		return "slice bound"
	default:
		return "loop bound"
	}
}

// Sink is one value position that must never receive a Tainted fact.
type Sink struct {
	Kind SinkKind
	// Val is the integer expression flowing into the sink.
	Val ast.Expr
}

// FuncFlow is the def-use chain of one function declaration, including
// any closures nested in its body (their events share the parent chain —
// positions stay linear).
type FuncFlow struct {
	Decl *ast.FuncDecl
	// Fn is the declaration's type object.
	Fn *types.Func
	// Events holds every Def and Use of function-local objects in
	// evaluation order: source-position order, except that reads inside
	// an assignment's right-hand side precede the left-hand side's Def.
	Events []Event
	// Sinks are the allocation/index/loop-bound positions in the body.
	Sinks []Sink

	byObj   map[types.Object][]int
	results map[types.Object]bool
	params  []types.Object
	guards  map[types.Object][]token.Pos // end positions of bound checks
	start   token.Pos
}

// EventsOf returns obj's events in evaluation order.
func (f *FuncFlow) EventsOf(obj types.Object) []Event {
	idx := f.byObj[obj]
	out := make([]Event, len(idx))
	for i, j := range idx {
		out[i] = f.Events[j]
	}
	return out
}

// Objects returns every local object with at least one event, in
// declaration-position order (deterministic).
func (f *FuncFlow) Objects() []types.Object {
	out := make([]types.Object, 0, len(f.byObj))
	for obj := range f.byObj {
		out = append(out, obj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// IsResult reports whether obj is a named result parameter of the
// function.
func (f *FuncFlow) IsResult(obj types.Object) bool { return f.results[obj] }

// guardedBetween reports whether a bound check for obj ends in (from, to].
func (f *FuncFlow) guardedBetween(obj types.Object, from, to token.Pos) bool {
	for _, end := range f.guards[obj] {
		if end > from && end <= to {
			return true
		}
	}
	return false
}

// Summary is what the taint engine knows about calls to a same-package
// function without re-analyzing it at every call site.
type Summary struct {
	// ReturnsTainted reports that some result derives from wire input
	// with no bound applied, independent of the arguments.
	ReturnsTainted bool
	// PassesThrough[i] reports that taint on argument i flows through to
	// a result.
	PassesThrough []bool
	// UnguardedParams[i] reports that parameter i reaches a sink inside
	// the function without a dominating bound check — passing a tainted
	// value there is as bad as the sink itself.
	UnguardedParams []bool
	// ParamNames mirrors the parameter list for diagnostics.
	ParamNames []string
}

// Analysis holds the per-package dataflow results.
type Analysis struct {
	pass      *analysis.Pass
	Flows     []*FuncFlow
	summaries map[*types.Func]*Summary

	// foreign resolves call summaries for functions outside this package.
	// The interprocedural Program installs it so cross-package calls see
	// the callee's summary instead of Clean; nil means same-package only.
	foreign func(*types.Func) *Summary
}

// New builds def-use chains for every function declaration in the pass
// and computes call summaries to a fixpoint.
func New(pass *analysis.Pass) *Analysis {
	a := &Analysis{
		pass:      pass,
		summaries: make(map[*types.Func]*Summary),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			flow := buildFlow(pass, fd)
			a.Flows = append(a.Flows, flow)
		}
	}
	a.computeSummaries()
	return a
}

// SummaryOf returns the call summary for a same-package function, or nil.
func (a *Analysis) SummaryOf(fn *types.Func) *Summary { return a.summaries[fn] }

// SummaryAny resolves a call summary for any loaded function: same-package
// directly, cross-package through the interprocedural program's resolver
// when one is installed.
func (a *Analysis) SummaryAny(fn *types.Func) *Summary {
	if s := a.summaries[fn]; s != nil {
		return s
	}
	if a.foreign != nil {
		return a.foreign(fn)
	}
	return nil
}

// SetForeign installs a resolver for out-of-package call summaries. After
// changing it, run Recompute (usually from the Program's global fixpoint
// loop) so summaries that depend on foreign callees climb the lattice.
func (a *Analysis) SetForeign(resolve func(*types.Func) *Summary) { a.foreign = resolve }

// Recompute runs one round of summary updates over every function and
// reports whether anything changed. The Program alternates Recompute
// across packages until no package changes — the global fixpoint.
// Summaries only climb the lattice, so the iteration terminates.
func (a *Analysis) Recompute() bool {
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

// ---- flow construction -------------------------------------------------

func buildFlow(pass *analysis.Pass, fd *ast.FuncDecl) *FuncFlow {
	flow := &FuncFlow{
		Decl:    fd,
		byObj:   make(map[types.Object][]int),
		results: make(map[types.Object]bool),
		guards:  make(map[types.Object][]token.Pos),
		start:   fd.Pos(),
	}
	if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		flow.Fn = obj
	}
	info := pass.TypesInfo

	declareFields := func(fl *ast.FieldList, result bool, param bool) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				if result {
					flow.results[obj] = true
				}
				if param {
					flow.params = append(flow.params, obj)
				}
				flow.add(Event{Kind: Def, Obj: obj, Pos: name.Pos()})
			}
		}
	}
	declareFields(fd.Recv, false, false)
	declareFields(fd.Type.Params, false, true)
	declareFields(fd.Type.Results, true, false)

	// First pass: classify assignment left-hand sides so the ident walk
	// below can tell writes from reads, and attach right-hand sides.
	type lhsInfo struct {
		rhs       ast.Expr
		compound  bool
		container bool
	}
	lhs := make(map[*ast.Ident]lhsInfo)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				id, ok := ast.Unparen(l).(*ast.Ident)
				if !ok {
					continue
				}
				li := lhsInfo{compound: n.Tok != token.ASSIGN && n.Tok != token.DEFINE}
				if len(n.Rhs) == len(n.Lhs) {
					li.rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					li.rhs = n.Rhs[0]
				}
				lhs[id] = li
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				lhs[id] = lhsInfo{compound: true}
			}
		case *ast.RangeStmt:
			if id, ok := n.Key.(*ast.Ident); ok && id != nil {
				lhs[id] = lhsInfo{} // index/key: bounded by the container
			}
			if id, ok := n.Value.(*ast.Ident); ok && id != nil {
				lhs[id] = lhsInfo{rhs: n.X, container: true}
			}
		}
		return true
	})

	// Second pass: one event per ident. ast.Inspect calls the callback
	// with nil after every visited node — not just block statements — so
	// the stack must mirror every node: push each non-nil node, pop on
	// each nil, and scan down the stack for the innermost enclosing
	// *ast.BlockStmt.
	var stack []ast.Node
	innermost := func() *ast.BlockStmt {
		for i := len(stack) - 1; i >= 0; i-- {
			if b, ok := stack[i].(*ast.BlockStmt); ok {
				return b
			}
		}
		return fd.Body
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		if obj, ok := info.Defs[id].(*types.Var); ok {
			li := lhs[id]
			flow.add(Event{Kind: Def, Obj: obj, Pos: id.Pos(), Rhs: li.rhs,
				Compound: li.compound, Container: li.container, Block: innermost()})
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if li, isLHS := lhs[id]; isLHS {
			if li.compound {
				flow.add(Event{Kind: Use, Obj: obj, Pos: id.Pos(), Block: innermost()})
			}
			flow.add(Event{Kind: Def, Obj: obj, Pos: id.Pos(), Rhs: li.rhs,
				Compound: li.compound, Container: li.container, Block: innermost()})
			return true
		}
		flow.add(Event{Kind: Use, Obj: obj, Pos: id.Pos(), Block: innermost()})
		return true
	})

	// A naked return in a function with named results reads every one of
	// them — that is how a shadowed err silently resurfaces.
	if len(flow.results) > 0 {
		walkSkippingFuncLits(fd.Body, func(n ast.Node) {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 0 {
				return
			}
			for obj := range flow.results {
				flow.add(Event{Kind: Use, Obj: obj, Pos: ret.Pos()})
			}
		})
	}

	// Sort events into evaluation order. Raw source position is almost
	// right, with two corrections: at `x += f()` the read precedes the
	// write at the same position, and the RHS of an assignment evaluates
	// before its LHS is written even though the LHS ident sits first in
	// the source — `err = fmt.Errorf("...: %w", err)` reads the previous
	// error, it does not clobber it unread. A Use positioned inside a
	// Def's Rhs extent therefore sorts just before that Def (the
	// innermost such Def, for nested assignments).
	key := make([]token.Pos, len(flow.Events))
	for i := range flow.Events {
		ev := &flow.Events[i]
		key[i] = ev.Pos
		if ev.Kind != Use {
			continue
		}
		best := token.NoPos
		for j := range flow.Events {
			d := &flow.Events[j]
			if d.Kind == Def && d.Rhs != nil && d.Pos < ev.Pos &&
				d.Rhs.Pos() <= ev.Pos && ev.Pos < d.Rhs.End() && d.Pos > best {
				best = d.Pos
			}
		}
		if best != token.NoPos {
			key[i] = best
		}
	}
	order := make([]int, len(flow.Events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		i, j := order[x], order[y]
		a, b := &flow.Events[i], &flow.Events[j]
		if key[i] != key[j] {
			return key[i] < key[j]
		}
		if a.Kind != b.Kind {
			return a.Kind == Use // read-before-write
		}
		return a.Pos < b.Pos
	})
	sorted := make([]Event, len(flow.Events))
	for x, i := range order {
		sorted[x] = flow.Events[i]
	}
	flow.Events = sorted
	flow.byObj = make(map[types.Object][]int)
	for i, ev := range flow.Events {
		flow.byObj[ev.Obj] = append(flow.byObj[ev.Obj], i)
	}

	collectGuards(flow, info)
	collectSinks(flow, info)
	return flow
}

func (f *FuncFlow) add(ev Event) { f.Events = append(f.Events, ev) }

// walkSkippingFuncLits visits nodes without descending into closures.
func walkSkippingFuncLits(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// collectGuards records bound checks: an if-statement whose condition
// mentions a local object and whose body either diverts control flow
// (return / break / continue / panic / os.Exit / log.Fatal) or clamps the
// object by assigning it. Code positioned after the if-statement runs
// with the object range-checked.
func collectGuards(flow *FuncFlow, info *types.Info) {
	ast.Inspect(flow.Decl.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		mentioned := objectsIn(info, ifs.Cond)
		if len(mentioned) == 0 {
			return true
		}
		if bodyDiverts(ifs.Body) {
			for obj := range mentioned {
				flow.guards[obj] = append(flow.guards[obj], ifs.End())
			}
			return true
		}
		assigned := assignedObjects(ifs.Body, info)
		for obj := range mentioned {
			if assigned[obj] {
				flow.guards[obj] = append(flow.guards[obj], ifs.End())
			}
		}
		return true
	})
}

// objectsIn collects the local variable objects mentioned in an expression.
func objectsIn(info *types.Info, e ast.Expr) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj, ok := info.Uses[id].(*types.Var); ok && !obj.IsField() {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// assignedObjects collects objects written anywhere in a statement.
func assignedObjects(root ast.Node, info *types.Info) map[types.Object]bool {
	out := make(map[types.Object]bool)
	record := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				record(l)
			}
		case *ast.IncDecStmt:
			record(n.X)
		}
		return true
	})
	return out
}

// bodyDiverts reports whether executing the block can only continue past
// the enclosing if by failing the condition: it returns, breaks,
// continues, panics, or exits (closures excluded).
func bodyDiverts(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt, *ast.BranchStmt:
			found = true
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "panic" {
					found = true
				}
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				if name == "Exit" || strings.HasPrefix(name, "Fatal") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// collectSinks enumerates the allocation, indexing, and loop-bound
// positions in a function body.
func collectSinks(flow *FuncFlow, info *types.Info) {
	addVal := func(kind SinkKind, val ast.Expr) {
		if val != nil {
			flow.Sinks = append(flow.Sinks, Sink{Kind: kind, Val: val})
		}
	}
	ast.Inspect(flow.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "make" {
					for _, arg := range n.Args[1:] {
						addVal(SinkMake, arg)
					}
				}
			}
		case *ast.IndexExpr:
			if tv, ok := info.Types[n.Index]; ok && tv.IsType() {
				return true // generic instantiation, not an index
			}
			if indexableSequence(info.TypeOf(n.X)) {
				addVal(SinkIndex, n.Index)
			}
		case *ast.SliceExpr:
			addVal(SinkSliceBound, n.Low)
			addVal(SinkSliceBound, n.High)
			addVal(SinkSliceBound, n.Max)
		case *ast.ForStmt:
			if n.Cond == nil {
				return true
			}
			ast.Inspect(n.Cond, func(c ast.Node) bool {
				if cmp, ok := c.(*ast.BinaryExpr); ok {
					switch cmp.Op {
					case token.LSS, token.LEQ, token.GTR, token.GEQ:
						addVal(SinkLoopBound, cmp.X)
						addVal(SinkLoopBound, cmp.Y)
					}
				}
				return true
			})
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					addVal(SinkLoopBound, n.X) // range-over-int
				}
			}
		}
		return true
	})
}

// indexableSequence reports whether indexing t walks contiguous memory
// (slices, arrays, strings — not maps, whose keys are never out of range).
func indexableSequence(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Array)
		return ok
	}
	return false
}
