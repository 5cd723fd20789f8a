package dataflow

// Effect summaries: one linear walk per declared function collects the
// direct facts (channel operations, lock acquisitions in order, atomic
// versus plain field access, wall-clock/randomness sources, metric-handle
// construction, outgoing call sites with their concurrency context), then a monotone
// whole-program fixpoint propagates the reachability facts across the
// call graph — including name-structural resolution of interface-method
// calls.
//
// Held-lock tracking is position-approximated like the rest of the
// dataflow layer: the walk visits nodes in source order and carries one
// mutable acquisition stack; a deferred Unlock never releases (the lock is
// held to the end of the function), and branch-local releases are
// linearized in source order. docs/STATIC_ANALYSIS.md spells out the
// approximation.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Effects is one function's summary, direct facts plus everything
// propagated from its (transitive) callees.
type Effects struct {
	// Acquires holds every lock ID the function may take, directly or via
	// any call.
	Acquires map[string]bool

	// ReachesTime reports a path to a wall-clock source (time.Now and
	// friends). TimeVia is the call importing the effect (nil when direct),
	// TimeWhat names the source, TimeSites are the direct sites.
	ReachesTime bool
	TimeVia     *CallSite
	TimeWhat    string
	TimeSites   []SourceSite

	// ReachesRand is the same for the global math/rand source.
	ReachesRand bool
	RandVia     *CallSite
	RandWhat    string
	RandSites   []SourceSite

	// HandleSites are the function's metric-handle constructions
	// (Registry.Counter/Gauge/Histogram) outside an obs.NewView build
	// function. They are direct facts only; nothing propagates.
	HandleSites []SourceSite
}

// SourceSite is a Site plus the name of the source it touches
// (e.g. "time.Now", "Registry.Counter").
type SourceSite struct {
	Site
	What string
}

func newEffects() *Effects {
	return &Effects{Acquires: make(map[string]bool)}
}

// ---- per-function walk -------------------------------------------------

func (p *Program) walkFunc(pf *ProgFunc) {
	w := &effWalker{p: p, pf: pf}
	ast.Inspect(pf.Decl.Body, w.visit)
}

type effWalker struct {
	p     *Program
	pf    *ProgFunc
	stack []ast.Node
	held  []string // lock IDs in acquisition order, source-position approximated
}

func (w *effWalker) visit(n ast.Node) bool {
	if n == nil {
		w.stack = w.stack[:len(w.stack)-1]
		return true
	}
	w.stack = append(w.stack, n)
	switch n := n.(type) {
	case *ast.SendStmt:
		w.chanOp(ChanSend, n.Chan, n.Arrow)
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			w.chanOp(ChanRecv, n.X, n.OpPos)
		}
	case *ast.CallExpr:
		w.call(n)
	case *ast.SelectorExpr:
		w.fieldAccess(n)
	}
	return true
}

// site snapshots the current concurrency context. A closure defined inside
// a loop (or go statement) inherits that context — it typically runs per
// iteration, which is exactly what the loop-discipline analyzers care
// about.
func (w *effWalker) site(pos token.Pos) Site {
	s := Site{Fn: w.pf.Fn, FnID: w.pf.ID, Pos: pos,
		Held: append([]string(nil), w.held...)}
	for i, anc := range w.stack {
		switch a := anc.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			s.InLoop = true
		case *ast.GoStmt:
			s.InGo = true
		case *ast.CallExpr:
			if i < len(w.stack)-1 && w.isOnceDo(a) {
				s.InOnce = true
			}
		}
	}
	return s
}

func (w *effWalker) inDefer() bool {
	for _, anc := range w.stack {
		if _, ok := anc.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// isOnceDo recognizes once.Do(...) calls; anything lexically inside the
// argument runs at most once.
func (w *effWalker) isOnceDo(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := w.pf.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Do" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && typeID(sig.Recv().Type()) == "sync.Once"
}

// inViewBuild reports whether the walk currently sits inside the build
// function literal of an obs.NewView call — the one place handle
// construction is sanctioned.
func (w *effWalker) inViewBuild() bool {
	for i, anc := range w.stack {
		if _, ok := anc.(*ast.FuncLit); !ok || i == 0 {
			continue
		}
		call, ok := w.stack[i-1].(*ast.CallExpr)
		if !ok {
			continue
		}
		if fn := calleeFunc(w.pf.Info, call); fn != nil && fn.Name() == "NewView" &&
			fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/obs") {
			return true
		}
	}
	return false
}

// ---- channel operations ------------------------------------------------

func (w *effWalker) chanOp(kind ChanOpKind, ch ast.Expr, pos token.Pos) {
	key, name, fromParam := w.chanIdent(ch)
	if key == "" {
		return
	}
	w.p.chanOps[key] = append(w.p.chanOps[key], ChanOp{
		Kind: kind, Key: key, Name: name, FromParam: fromParam, Site: w.site(pos),
	})
}

// chanIdent names the abstract channel an operation touches: a struct
// field, a package-level var, or a local/parameter. Anything else (map
// element, call result) is out of the abstraction.
func (w *effWalker) chanIdent(e ast.Expr) (key, name string, fromParam bool) {
	info := w.pf.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj, _ := info.ObjectOf(e).(*types.Var)
		if obj == nil {
			return "", "", false
		}
		// A directional chan<- parameter documents ownership transfer (the
		// canonical deferred-close producer); only a bidirectional channel
		// parameter counts as borrowed.
		fromParam = w.isParamOf(obj)
		if ch, ok := obj.Type().Underlying().(*types.Chan); ok && ch.Dir() != types.SendRecv {
			fromParam = false
		}
		return objectKey(w.p.fset, obj), obj.Name(), fromParam
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			fld, _ := sel.Obj().(*types.Var)
			if fld == nil {
				return "", "", false
			}
			return fieldID(sel.Recv(), fld), fld.Name(), false
		}
		if obj, ok := info.Uses[e.Sel].(*types.Var); ok { // qualified package var
			return objectKey(w.p.fset, obj), obj.Name(), false
		}
	}
	return "", "", false
}

func (w *effWalker) isParamOf(obj *types.Var) bool {
	sig, _ := w.pf.Fn.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return true
		}
	}
	return false
}

// ---- calls -------------------------------------------------------------

func (w *effWalker) call(n *ast.CallExpr) {
	info := w.pf.Info
	if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "close" && len(n.Args) == 1 {
				w.chanOp(ChanClose, n.Args[0], n.Pos())
			}
			return
		}
	}
	callee := calleeFunc(info, n)
	if callee == nil {
		return
	}
	pkgPath := ""
	if callee.Pkg() != nil {
		pkgPath = callee.Pkg().Path()
	}
	sig, _ := callee.Type().(*types.Signature)
	eff := w.pf.Effects

	switch pkgPath {
	case "sync":
		w.syncCall(n, callee, sig)
		return
	case "sync/atomic":
		w.atomicCall(n, sig)
		return
	case "time":
		switch callee.Name() {
		case "Now", "Since", "Until":
			s := SourceSite{Site: w.site(n.Pos()), What: "time." + callee.Name()}
			eff.TimeSites = append(eff.TimeSites, s)
			if !eff.ReachesTime {
				eff.ReachesTime, eff.TimeWhat = true, s.What
			}
		}
		return
	case "math/rand", "math/rand/v2":
		// Package-level functions draw from the shared global source;
		// explicitly seeded *Rand values (rand.New) stay deterministic.
		if sig != nil && sig.Recv() == nil {
			switch callee.Name() {
			case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			default:
				s := SourceSite{Site: w.site(n.Pos()), What: strings.TrimPrefix(pkgPath, "math/") + "." + callee.Name()}
				eff.RandSites = append(eff.RandSites, s)
				if !eff.ReachesRand {
					eff.ReachesRand, eff.RandWhat = true, s.What
				}
			}
		}
		return
	}
	if strings.HasSuffix(pkgPath, "internal/obs") {
		w.handleCall(n, callee, sig)
	}
	w.recordCallSite(n, callee, sig)
}

// handleCall records metric-handle construction outside a NewView build.
func (w *effWalker) handleCall(n *ast.CallExpr, callee *types.Func, sig *types.Signature) {
	if sig == nil || sig.Recv() == nil || !strings.HasSuffix(typeID(sig.Recv().Type()), ".Registry") {
		return
	}
	switch callee.Name() {
	case "Counter", "Gauge", "Histogram":
		if !w.inViewBuild() {
			eff := w.pf.Effects
			eff.HandleSites = append(eff.HandleSites,
				SourceSite{Site: w.site(n.Pos()), What: "Registry." + callee.Name()})
		}
	}
}

func (w *effWalker) recordCallSite(n *ast.CallExpr, callee *types.Func, sig *types.Signature) {
	cs := &CallSite{
		Caller:   w.pf.Fn,
		Callee:   callee,
		CalleeID: FuncID(callee),
		Pos:      n.Pos(),
		Held:     append([]string(nil), w.held...),
	}
	for _, anc := range w.stack {
		switch anc.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			cs.InLoop = true
		case *ast.GoStmt:
			cs.InGo = true
		case *ast.DeferStmt:
			cs.InDefer = true
		}
	}
	if sig != nil && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			cs.Dynamic = true
			cs.MethodName = callee.Name()
			for i := 0; i < iface.NumMethods(); i++ {
				cs.IfaceNames = append(cs.IfaceNames, iface.Method(i).Name())
			}
			sort.Strings(cs.IfaceNames)
		}
	}
	w.pf.Calls = append(w.pf.Calls, cs)
}

// ---- locks -------------------------------------------------------------

func (w *effWalker) syncCall(n *ast.CallExpr, callee *types.Func, sig *types.Signature) {
	if sig == nil || sig.Recv() == nil {
		return
	}
	switch typeID(sig.Recv().Type()) {
	case "sync.Mutex", "sync.RWMutex":
	default:
		return // Once.Do context is handled via the site stack; WaitGroup etc. are out of scope
	}
	sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	id := w.lockIDOf(sel.X)
	eff := w.pf.Effects
	switch callee.Name() {
	case "Lock", "RLock":
		eff.Acquires[id] = true
		for _, h := range w.held {
			if h != id {
				w.p.addEdge(h, id, n.Pos(), w.pf, "")
			}
		}
		w.held = append(w.held, id)
	case "TryLock", "TryRLock":
		// May acquire: record the ordering evidence but do not assume held
		// (the success branch is not modeled).
		eff.Acquires[id] = true
		for _, h := range w.held {
			if h != id {
				w.p.addEdge(h, id, n.Pos(), w.pf, "")
			}
		}
	case "Unlock", "RUnlock":
		if w.inDefer() {
			return // released at function end: held for the rest of the body
		}
		for i := len(w.held) - 1; i >= 0; i-- {
			if w.held[i] == id {
				w.held = append(w.held[:i], w.held[i+1:]...)
				break
			}
		}
	}
}

// lockIDOf names the lock a sync call operates on: struct fields by owner
// type + field, package vars by path + name, locals by declaration
// position, and a promoted embedded mutex by the embedding type.
func (w *effWalker) lockIDOf(x ast.Expr) string {
	info := w.pf.Info
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			if fld, ok := s.Obj().(*types.Var); ok {
				return fieldID(s.Recv(), fld)
			}
		}
		if obj, ok := info.Uses[x.Sel].(*types.Var); ok {
			return objectKey(w.p.fset, obj)
		}
	case *ast.Ident:
		if obj, ok := info.ObjectOf(x).(*types.Var); ok {
			if !isSyncLock(obj.Type()) {
				return typeID(obj.Type()) + ".lock" // promoted embedded mutex
			}
			return objectKey(w.p.fset, obj)
		}
	}
	if t := info.TypeOf(x); t != nil {
		return typeID(t) + ".lock"
	}
	return "?"
}

func isSyncLock(t types.Type) bool {
	switch typeID(t) {
	case "sync.Mutex", "sync.RWMutex":
		return true
	}
	return false
}

// ---- atomic vs plain field access --------------------------------------

func (w *effWalker) atomicCall(n *ast.CallExpr, sig *types.Signature) {
	if sig != nil && sig.Recv() != nil {
		// Typed atomic (atomic.Int64, atomic.Pointer, ...): the receiver
		// expression is the cell.
		if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
			w.recordAtomic(sel.X, n.Pos())
		}
		return
	}
	// Package function (atomic.AddUint64(&x.f, 1), ...): the address
	// argument is the cell.
	if len(n.Args) > 0 {
		if un, ok := ast.Unparen(n.Args[0]).(*ast.UnaryExpr); ok && un.Op == token.AND {
			w.recordAtomic(un.X, n.Pos())
		}
	}
}

func (w *effWalker) recordAtomic(cell ast.Expr, pos token.Pos) {
	info := w.pf.Info
	sel, ok := ast.Unparen(cell).(*ast.SelectorExpr)
	if !ok {
		return // atomics on non-field cells are out of the field abstraction
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	fld, _ := s.Obj().(*types.Var)
	if fld == nil {
		return
	}
	fa := w.p.field(fieldID(s.Recv(), fld), fld.Name())
	fa.Atomic = append(fa.Atomic, w.site(pos))
}

// fieldAccess records plain reads/writes of fields whose type could also
// be touched through sync/atomic (integers, unsafe pointers) — the
// atomiccheck join only fires on fields present in both camps.
func (w *effWalker) fieldAccess(sel *ast.SelectorExpr) {
	info := w.pf.Info
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	fld, _ := s.Obj().(*types.Var)
	if fld == nil || !plainTrackable(fld.Type()) {
		return
	}
	if w.atomicOperand() {
		return // &x.f inside an atomic call: recorded by atomicCall
	}
	read, write := w.accessKind(sel)
	if !read && !write {
		return
	}
	fa := w.p.field(fieldID(s.Recv(), fld), fld.Name())
	st := w.site(sel.Sel.Pos())
	if read {
		fa.PlainReads = append(fa.PlainReads, st)
	}
	if write {
		fa.PlainWrites = append(fa.PlainWrites, st)
	}
}

// atomicOperand reports whether the selector currently on top of the stack
// is the &-operand of a sync/atomic package call.
func (w *effWalker) atomicOperand() bool {
	if len(w.stack) < 3 {
		return false
	}
	un, ok := w.stack[len(w.stack)-2].(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return false
	}
	call, ok := w.stack[len(w.stack)-3].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(w.pf.Info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

func (w *effWalker) accessKind(sel *ast.SelectorExpr) (read, write bool) {
	if len(w.stack) < 2 {
		return true, false
	}
	switch parent := w.stack[len(w.stack)-2].(type) {
	case *ast.AssignStmt:
		for _, l := range parent.Lhs {
			if ast.Unparen(l) == sel {
				compound := parent.Tok != token.ASSIGN && parent.Tok != token.DEFINE
				return compound, true
			}
		}
		return true, false
	case *ast.IncDecStmt:
		return true, true
	case *ast.UnaryExpr:
		if parent.Op == token.AND {
			return true, true // address escapes: anything can happen to it
		}
	}
	return true, false
}

// plainTrackable limits plain-access recording to field types sync/atomic
// can also operate on.
func plainTrackable(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Info()&types.IsInteger != 0 || b.Kind() == types.UnsafePointer
	}
	return false
}

func (p *Program) field(id, name string) *FieldAccess {
	fa := p.fields[id]
	if fa == nil {
		fa = &FieldAccess{ID: id, Name: name}
		p.fields[id] = fa
	}
	return fa
}

func (p *Program) addEdge(from, to string, pos token.Pos, pf *ProgFunc, via string) bool {
	k := lockEdgeKey{from: from, to: to, pos: pos}
	if p.lockEdgeSet[k] {
		return false
	}
	p.lockEdgeSet[k] = true
	p.lockEdges = append(p.lockEdges, LockEdge{
		From: from, To: to, Pos: pos, Fn: pf.Fn, FnID: pf.ID, Via: via,
	})
	return true
}

// ---- whole-program fixpoint --------------------------------------------

// fixpoint propagates reachability facts (time/rand sources, transitive
// lock acquisitions and the ordering edges they imply)
// across the call graph until nothing changes. Every fact is monotone —
// booleans only flip to true, sets only grow — so termination is
// guaranteed; the via pointers are set exactly once, on the round a fact
// first arrives, which keeps explanation chains acyclic.
func (p *Program) fixpoint() {
	for k := range p.chanOps {
		p.chanKeys = append(p.chanKeys, k)
	}
	for id := range p.fields {
		p.fieldIDs = append(p.fieldIDs, id)
	}
	p.dynCache = make(map[string][]*ProgFunc)

	for changed := true; changed; {
		changed = false
		for _, pf := range p.funcs {
			eff := pf.Effects
			for _, cs := range pf.Calls {
				for _, cal := range p.callees(cs) {
					ce := cal.Effects
					if ce.ReachesTime && !eff.ReachesTime {
						eff.ReachesTime, eff.TimeVia = true, cs
						changed = true
					}
					if ce.ReachesRand && !eff.ReachesRand {
						eff.ReachesRand, eff.RandVia = true, cs
						changed = true
					}
					for l := range ce.Acquires {
						if !eff.Acquires[l] {
							eff.Acquires[l] = true
							changed = true
						}
						for _, h := range cs.Held {
							if h != l && p.addEdge(h, l, cs.Pos, pf, cal.ID) {
								changed = true
							}
						}
					}
				}
			}
		}
	}
}

// Callees resolves a call site to the loaded functions it may invoke:
// exactly one for a static call, every structurally matching concrete
// method for an interface call, none for targets outside the load.
func (p *Program) Callees(cs *CallSite) []*ProgFunc { return p.callees(cs) }

func (p *Program) callees(cs *CallSite) []*ProgFunc {
	if !cs.Dynamic {
		if pf := p.byID[cs.CalleeID]; pf != nil {
			return []*ProgFunc{pf}
		}
		return nil
	}
	p.dynMu.Lock()
	defer p.dynMu.Unlock()
	if impls, ok := p.dynCache[cs.CalleeID]; ok {
		return impls
	}
	var impls []*ProgFunc
	for _, pf := range p.funcs {
		if pf.Fn.Name() != cs.MethodName || pf.Decl.Recv == nil {
			continue
		}
		if methodNamesCover(pf, cs.IfaceNames) {
			impls = append(impls, pf)
		}
	}
	p.dynCache[cs.CalleeID] = impls
	return impls
}

// methodNamesCover reports whether pf's receiver type carries at least the
// interface's method names — structural implements by name, which stays
// correct across the source/export-data type-identity split (types from
// the two sides are never Identical, so types.Implements cannot be used).
func methodNamesCover(pf *ProgFunc, names []string) bool {
	sig, _ := pf.Fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := types.Unalias(recv).(*types.Named)
	if !ok {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	have := make(map[string]bool, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		have[ms.At(i).Obj().Name()] = true
	}
	for _, n := range names {
		if !have[n] {
			return false
		}
	}
	return true
}

// ---- explanation chains ------------------------------------------------

// TimeChain explains how fn reaches a wall-clock source as a list of hop
// labels ending in the source name; empty when it does not.
func (p *Program) TimeChain(pf *ProgFunc) []string {
	return p.chain(pf,
		func(e *Effects) (*CallSite, string) { return e.TimeVia, e.TimeWhat },
		func(e *Effects) bool { return e.ReachesTime })
}

// RandChain is TimeChain for the global math/rand source.
func (p *Program) RandChain(pf *ProgFunc) []string {
	return p.chain(pf,
		func(e *Effects) (*CallSite, string) { return e.RandVia, e.RandWhat },
		func(e *Effects) bool { return e.ReachesRand })
}

func (p *Program) chain(pf *ProgFunc, step func(*Effects) (*CallSite, string), has func(*Effects) bool) []string {
	var hops []string
	seen := make(map[string]bool)
	for cur := pf; cur != nil && !seen[cur.ID]; {
		seen[cur.ID] = true
		cs, what := step(cur.Effects)
		if cs == nil {
			if what != "" {
				hops = append(hops, what)
			}
			return hops
		}
		hops = append(hops, FuncLabel(cs.Callee))
		var next *ProgFunc
		for _, cal := range p.callees(cs) {
			if has(cal.Effects) {
				next = cal
				break
			}
		}
		cur = next
	}
	return hops
}

// FuncLabel renders a function for diagnostics: pkgname.Name, or
// pkgname.(Recv).Name for methods.
func FuncLabel(fn *types.Func) string {
	if fn == nil {
		return "?"
	}
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return pkg + "(" + recvName(sig.Recv().Type()) + ")." + fn.Name()
	}
	return pkg + fn.Name()
}
