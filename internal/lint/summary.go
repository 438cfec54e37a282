package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer under boltlint: a module-wide
// function-summary index. PR 4's analyzers were strictly intraprocedural —
// hotalloc inspects only the annotated body, so an allocation one call away
// escaped the lint and was caught (much later, with much worse locality) by
// the alloc-budget bench gate. The summary layer closes that gap:
//
//  1. Per-function facts are extracted from each package's already
//     type-checked AST: "allocates", "reads the wall clock", "launches a
//     goroutine", which atomic.Pointer fields it Loads/Stores/CASes, which
//     sync.WaitGroups it Dones/Waits, its static call edges, and which of
//     its func-typed parameters it forwards as fan-out bodies.
//  2. Facts propagate across the call graph with fixed-point iteration.
//     Interface method calls fan out to every implementation declared in
//     the analyzed packages, so a hot path calling through an interface is
//     still tracked. Cycles converge because the facts are monotone booleans.
//
// The four interprocedural analyzers (hotcall, rcudiscipline, barriermerge,
// timerleak) consume the index through Pass.Summaries.

// ParamForward records one call argument that is a func-typed parameter of
// the enclosing function, e.g. a wrapper passing its body through to
// par.FanOut. The fixed point uses these to learn which wrappers are
// fan-out entry points.
type ParamForward struct {
	Callee     string // summary key of the called function
	ArgIndex   int    // position in the call
	ParamIndex int    // position in the enclosing signature
}

// FuncFacts are the per-function facts the summary layer extracts and
// propagates. The exported fields are local (this body only); the
// unexported trans* fields are the transitive closure computed per run.
type FuncFacts struct {
	// Allocates reports an unguarded, unsuppressed allocation construct in
	// the body: make/new, slice/map composite literals, address-taken
	// literals, appends without capacity provenance, escaping closures, or
	// a call into the known-allocating external table. AllocDesc/AllocPos
	// describe the first such site for diagnostics.
	Allocates bool
	AllocDesc string
	AllocPos  string

	// ReadsClock reports a wall-clock read (time.Now and friends).
	ReadsClock bool
	// Goroutine reports a `go` statement in the body.
	Goroutine bool

	// PtrLoads/PtrStores/PtrSwaps/PtrCAS are the atomic.Pointer fields this
	// body Load/Store/Swap/CompareAndSwap-s, as field keys
	// ("pkg/path.Type.field").
	PtrLoads  []string
	PtrStores []string
	PtrSwaps  []string
	PtrCAS    []string

	// WGDone/WGWait are the sync.WaitGroup *fields* this body calls
	// Done/Wait on (field keys). Local WaitGroups are intra-function and
	// need no summary.
	WGDone []string
	WGWait []string

	// Calls are the statically resolved callee keys, deduplicated, in
	// source order (the order matters: transitive-allocation chains pick
	// the first allocating callee deterministically).
	Calls []string

	// FanOutParams are indices of func-typed parameters this function runs
	// as fan-out bodies (seeded at par.FanOut/FanOutBlocks, learned for
	// wrappers through ParamForwards).
	FanOutParams []int
	// ParamForwards records func-typed parameters passed on to callees.
	ParamForwards []ParamForward

	// Transitive closure.
	transAlloc bool
	allocVia   string // first callee (source order) the allocation is reached through; "" = local
	transClock bool
	clockVia   string
	transDone  []string // WaitGroup field keys Done()d transitively
	transLoads []string // atomic.Pointer field keys Loaded transitively
}

// externalFacts are curated facts for functions outside the analyzed
// packages (mostly stdlib). Unknown externals default to no facts: the
// analyzers err toward silence at the module boundary and rely on the
// dynamic alloc-budget gates for what static summaries cannot see.
var externalFacts = map[string]FuncFacts{
	"fmt.Sprintf":  {Allocates: true, AllocDesc: "fmt.Sprintf"},
	"fmt.Sprint":   {Allocates: true, AllocDesc: "fmt.Sprint"},
	"fmt.Sprintln": {Allocates: true, AllocDesc: "fmt.Sprintln"},
	"fmt.Errorf":   {Allocates: true, AllocDesc: "fmt.Errorf"},
	"fmt.Fprintf":  {Allocates: true, AllocDesc: "fmt.Fprintf"},
	"fmt.Fprint":   {Allocates: true, AllocDesc: "fmt.Fprint"},
	"fmt.Fprintln": {Allocates: true, AllocDesc: "fmt.Fprintln"},
	"fmt.Printf":   {Allocates: true, AllocDesc: "fmt.Printf"},
	"fmt.Println":  {Allocates: true, AllocDesc: "fmt.Println"},
	"fmt.Appendf":  {Allocates: true, AllocDesc: "fmt.Appendf"},

	"errors.New": {Allocates: true, AllocDesc: "errors.New"},

	"strconv.Itoa":        {Allocates: true, AllocDesc: "strconv.Itoa"},
	"strconv.FormatFloat": {Allocates: true, AllocDesc: "strconv.FormatFloat"},
	"strconv.FormatInt":   {Allocates: true, AllocDesc: "strconv.FormatInt"},
	"strconv.Quote":       {Allocates: true, AllocDesc: "strconv.Quote"},

	"strings.Repeat":     {Allocates: true, AllocDesc: "strings.Repeat"},
	"strings.Join":       {Allocates: true, AllocDesc: "strings.Join"},
	"strings.Split":      {Allocates: true, AllocDesc: "strings.Split"},
	"strings.Fields":     {Allocates: true, AllocDesc: "strings.Fields"},
	"strings.Replace":    {Allocates: true, AllocDesc: "strings.Replace"},
	"strings.ReplaceAll": {Allocates: true, AllocDesc: "strings.ReplaceAll"},
	"strings.ToUpper":    {Allocates: true, AllocDesc: "strings.ToUpper"},
	"strings.ToLower":    {Allocates: true, AllocDesc: "strings.ToLower"},

	"sort.Slice":       {Allocates: true, AllocDesc: "sort.Slice (boxes the less func)"},
	"sort.SliceStable": {Allocates: true, AllocDesc: "sort.SliceStable (boxes the less func)"},

	"time.Now":   {ReadsClock: true},
	"time.Since": {ReadsClock: true},
	"time.Until": {ReadsClock: true},
}

// fanOutSeeds are the ground-truth fan-out entry points: par.FanOut and
// par.FanOutBlocks run their 4th argument as the concurrent body. Wrappers
// that forward a body to them are learned from ParamForwards at fixed
// point, so the seed list never needs to grow.
var fanOutSeeds = map[string][]int{
	"bolt/internal/par.FanOut":       {3},
	"bolt/internal/par.FanOutBlocks": {3},
}

// Summaries is the module-wide function-fact index for one Run.
type Summaries struct {
	funcs map[string]*FuncFacts
	keys  []string            // sorted keys of funcs, for deterministic iteration
	pkgOf map[string]string   // function key -> declaring package path
	impls map[string][]string // interface-method key -> implementing method keys
}

// funcKey is the summary key of a *types.Func: the generic origin's
// FullName, e.g. "bolt/internal/mining.Dot",
// "(*bolt/internal/serve.Server).flush", or — for interface methods —
// "(bolt/internal/sim.DemandVersioner).Demand".
func funcKey(fn *types.Func) string {
	return fn.Origin().FullName()
}

// Facts returns the (local) facts for key, or nil when unknown.
func (s *Summaries) Facts(key string) *FuncFacts {
	return s.funcs[key]
}

// PackageFuncs returns the summary keys declared in the given package, in
// sorted order.
func (s *Summaries) PackageFuncs(pkgPath string) []string {
	var out []string
	for _, k := range s.keys {
		if s.pkgOf[k] == pkgPath {
			out = append(out, k)
		}
	}
	return out
}

// TransitivelyAllocates reports whether key (or anything it can reach)
// allocates.
func (s *Summaries) TransitivelyAllocates(key string) bool {
	f := s.funcs[key]
	return f != nil && f.transAlloc
}

// TransitivelyReadsClock reports whether key (or anything it can reach)
// reads the wall clock.
func (s *Summaries) TransitivelyReadsClock(key string) bool {
	f := s.funcs[key]
	return f != nil && f.transClock
}

// TransitiveWGDone returns the WaitGroup field keys key Done()s,
// transitively.
func (s *Summaries) TransitiveWGDone(key string) []string {
	f := s.funcs[key]
	if f == nil {
		return nil
	}
	return f.transDone
}

// TransitivePtrLoads returns the atomic.Pointer field keys key Load()s,
// transitively.
func (s *Summaries) TransitivePtrLoads(key string) []string {
	f := s.funcs[key]
	if f == nil {
		return nil
	}
	return f.transLoads
}

// WGWaitExists reports whether any summarized function Waits on the given
// WaitGroup field key — the module-wide half of the goroutine-join check.
func (s *Summaries) WGWaitExists(fieldKey string) bool {
	for _, k := range s.keys {
		for _, w := range s.funcs[k].WGWait {
			if w == fieldKey {
				return true
			}
		}
	}
	return false
}

// FanOutParams returns the fan-out body-parameter indices of key (seeded
// or learned); nil when key is not a fan-out entry point.
func (s *Summaries) FanOutParams(key string) []int {
	f := s.funcs[key]
	if f == nil {
		return nil
	}
	return f.FanOutParams
}

// AllocChain renders the call chain from key to the allocation that makes
// it transitively allocating, e.g.
//
//	flushGroup → scratchFor → make (serve.go:101)
//
// Short names keep the diagnostic readable; the terminal element names the
// allocating construct and its position.
func (s *Summaries) AllocChain(key string) string {
	var parts []string
	cur := key
	for range s.keys { // bounded: via links cannot be longer than the graph
		f := s.funcs[cur]
		if f == nil {
			return strings.Join(parts, " → ")
		}
		if f.allocVia == "" {
			site := f.AllocDesc
			if f.AllocPos != "" {
				site += " (" + f.AllocPos + ")"
			}
			parts = append(parts, site)
			return strings.Join(parts, " → ")
		}
		parts = append(parts, shortFuncName(f.allocVia))
		cur = f.allocVia
	}
	return strings.Join(parts, " → ")
}

// shortFuncName compresses a summary key for diagnostics:
// "(*bolt/internal/serve.Server).flush" → "(*serve.Server).flush".
func shortFuncName(key string) string {
	out := key
	for {
		i := strings.Index(out, "bolt/")
		if i < 0 {
			return out
		}
		j := strings.Index(out[i:], ".")
		if j < 0 {
			return out
		}
		path := out[i : i+j]
		out = out[:i] + path[strings.LastIndex(path, "/")+1:] + out[i+j:]
	}
}

// BuildSummaries extracts local facts for every function in pkgs, resolves interface-dispatch and
// fan-out edges, and runs the fixed point. It is deterministic: iteration
// orders are pinned by sorted keys and source order, never map order.
func BuildSummaries(pkgs []*Package) *Summaries {
	s := &Summaries{
		funcs: map[string]*FuncFacts{},
		pkgOf: map[string]string{},
		impls: map[string][]string{},
	}

	// Phase 1: local facts per package.
	for _, pkg := range pkgs {
		for fk, ff := range extractPackageFacts(pkg) {
			s.funcs[fk] = ff
			s.pkgOf[fk] = pkg.PkgPath
		}
	}

	// Phase 2: synthesize entries for callees that have no body here —
	// known externals, fan-out seeds, and interface methods (which get one
	// call edge per implementation found in the analyzed packages).
	s.rebuildKeys()
	for _, k := range s.keys {
		for _, callee := range s.funcs[k].Calls {
			s.ensureCallee(callee, pkgs)
		}
		for _, pf := range s.funcs[k].ParamForwards {
			s.ensureCallee(pf.Callee, pkgs)
		}
	}
	for seed, params := range fanOutSeeds {
		if f := s.funcs[seed]; f != nil {
			f.FanOutParams = mergeInts(f.FanOutParams, params)
		}
	}
	s.rebuildKeys()

	// Phase 3: fixed point. All facts are monotone (false→true, growing
	// sets), so iteration terminates; the via links are recomputed from
	// scratch each sweep and settle with the booleans.
	for changed := true; changed; {
		changed = false
		for _, k := range s.keys {
			f := s.funcs[k]
			ta, av := f.Allocates, ""
			tc, cv := f.ReadsClock, ""
			done := append([]string(nil), f.WGDone...)
			loads := append([]string(nil), f.PtrLoads...)
			for _, callee := range f.Calls {
				cf := s.funcs[callee]
				if cf == nil {
					continue
				}
				if cf.transAlloc && !ta {
					ta, av = true, callee
				}
				if cf.transClock && !tc {
					tc, cv = true, callee
				}
				done = mergeStrings(done, cf.transDone)
				loads = mergeStrings(loads, cf.transLoads)
			}
			var fan []int
			fan = append(fan, f.FanOutParams...)
			for _, pf := range f.ParamForwards {
				cf := s.funcs[pf.Callee]
				if cf == nil {
					continue
				}
				for _, p := range cf.FanOutParams {
					if p == pf.ArgIndex {
						fan = mergeInts(fan, []int{pf.ParamIndex})
					}
				}
			}
			if ta != f.transAlloc || av != f.allocVia ||
				tc != f.transClock || cv != f.clockVia ||
				len(done) != len(f.transDone) || len(loads) != len(f.transLoads) ||
				len(fan) != len(f.FanOutParams) {
				changed = true
			}
			f.transAlloc, f.allocVia = ta, av
			f.transClock, f.clockVia = tc, cv
			f.transDone, f.transLoads = done, loads
			f.FanOutParams = fan
		}
	}
	return s
}

func (s *Summaries) rebuildKeys() {
	s.keys = s.keys[:0]
	for k := range s.funcs {
		s.keys = append(s.keys, k)
	}
	sort.Strings(s.keys)
}

// ensureCallee gives a summary entry to a callee with no body in pkgs:
// external facts, fan-out seeds, or an interface method expanded to its
// implementations.
func (s *Summaries) ensureCallee(key string, pkgs []*Package) {
	if _, ok := s.funcs[key]; ok {
		return
	}
	if ext, ok := externalFacts[key]; ok {
		f := ext // copy
		s.funcs[key] = &f
		return
	}
	if params, ok := fanOutSeeds[key]; ok {
		s.funcs[key] = &FuncFacts{FanOutParams: append([]int(nil), params...)}
		return
	}
	if impls := s.interfaceImpls(key, pkgs); impls != nil {
		s.funcs[key] = &FuncFacts{Calls: impls}
		s.impls[key] = impls
	}
}

// interfaceImpls resolves an interface-method key like
// "(bolt/internal/sim.DemandVersioner).Demand" to the matching methods of
// every named type in pkgs that implements the interface, in sorted order.
// Returns nil when key does not name a resolvable interface method.
func (s *Summaries) interfaceImpls(key string, pkgs []*Package) []string {
	if !strings.HasPrefix(key, "(") {
		return nil
	}
	end := strings.Index(key, ")")
	if end < 0 || end+2 > len(key) || key[end+1] != '.' {
		return nil
	}
	recv, method := key[1:end], key[end+2:]
	if strings.HasPrefix(recv, "*") {
		return nil // pointer receiver: a concrete method, not an interface
	}
	dot := strings.LastIndex(recv, ".")
	if dot < 0 {
		return nil
	}
	pkgPath, typeName := recv[:dot], recv[dot+1:]

	iface := lookupInterface(pkgs, pkgPath, typeName)
	if iface == nil {
		return nil
	}
	var out []string
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			sel := types.NewMethodSet(types.NewPointer(named)).Lookup(pkg.Types, method)
			if sel == nil {
				// Exported interface methods are looked up package-free.
				for i, ms := 0, types.NewMethodSet(types.NewPointer(named)); i < ms.Len(); i++ {
					if ms.At(i).Obj().Name() == method {
						sel = ms.At(i)
						break
					}
				}
			}
			if sel == nil {
				continue
			}
			if m, ok := sel.Obj().(*types.Func); ok {
				out = append(out, funcKey(m))
			}
		}
	}
	sort.Strings(out)
	return dedupSorted(out)
}

// lookupInterface finds the named interface type pkgPath.typeName among the
// analyzed packages and their imports.
func lookupInterface(pkgs []*Package, pkgPath, typeName string) *types.Interface {
	lookupIn := func(tp *types.Package) *types.Interface {
		obj := tp.Scope().Lookup(typeName)
		if obj == nil {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	for _, pkg := range pkgs {
		if pkg.Types.Path() == pkgPath {
			return lookupIn(pkg.Types)
		}
	}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			if imp.Path() == pkgPath {
				return lookupIn(imp)
			}
		}
	}
	return nil
}

// extractPackageFacts computes the local facts for every function declared
// in pkg. Suppressed allocation sites (//bolt:nolint hotalloc/hotcall with
// a reason) do not contribute facts: a documented, budget-pinned allocation
// must not poison every transitive caller.
func extractPackageFacts(pkg *Package) map[string]*FuncFacts {
	pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info}
	sups := parseSuppressions(pkg)
	allocSuppressed := func(pos token.Pos) bool {
		p := pkg.Fset.Position(pos)
		for i := range sups {
			if !sups[i].hasReason {
				continue
			}
			if sups[i].covers(HotallocAnalyzer.Name, p.Filename, p.Line) ||
				sups[i].covers(HotcallAnalyzer.Name, p.Filename, p.Line) {
				return true
			}
		}
		return false
	}

	out := map[string]*FuncFacts{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			out[funcKey(obj)] = extractFuncFacts(pass, fn, allocSuppressed)
		}
	}
	return out
}

// extractFuncFacts walks one function body (function literals included:
// their effects run under this function's dynamic extent, and a closure
// passed elsewhere is summarized at its capture site, which is as precise
// as a flow-insensitive summary gets).
func extractFuncFacts(pass *Pass, fn *ast.FuncDecl, allocSuppressed func(token.Pos) bool) *FuncFacts {
	f := &FuncFacts{}
	body := fn.Body
	parent := parentMap(body)
	guarded := guardedRanges(body)
	provenanced := capacityProvenanced(pass, body)
	closures := localClosures(pass, body)
	params := paramObjects(pass, fn)

	inGuard := func(n ast.Node) bool {
		for _, r := range guarded {
			if n.Pos() >= r[0] && n.End() <= r[1] {
				return true
			}
		}
		return false
	}
	noteAlloc := func(n ast.Node, desc string) {
		if f.Allocates || inGuard(n) || allocSuppressed(n.Pos()) {
			return
		}
		f.Allocates = true
		f.AllocDesc = desc
		pos := pass.Fset.Position(n.Pos())
		f.AllocPos = fmt.Sprintf("%s:%d", trimPath(pos.Filename), pos.Line)
	}
	seenCall := map[string]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.GoStmt:
			f.Goroutine = true

		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(node)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				noteAlloc(node, "composite slice literal")
			case *types.Map:
				noteAlloc(node, "composite map literal")
			default:
				if u, ok := parent[node].(*ast.UnaryExpr); ok && u.Op == token.AND {
					noteAlloc(node, "&"+types.TypeString(t, types.RelativeTo(pass.Pkg))+" literal")
				}
			}

		case *ast.FuncLit:
			if escapingFuncLit(pass, node, parent, closures) {
				noteAlloc(node, "escaping closure")
			}

		case *ast.CallExpr:
			extractCallFacts(pass, f, node, fn, params, provenanced, noteAlloc, seenCall)
		}
		return true
	})
	return f
}

// escapingFuncLit mirrors hotalloc's closure judgement: immediately invoked
// literals and call-only locals stay on the stack.
func escapingFuncLit(pass *Pass, lit *ast.FuncLit, parent map[ast.Node]ast.Node, closures map[types.Object]*ast.FuncLit) bool {
	if call, ok := parent[lit].(*ast.CallExpr); ok && call.Fun == lit {
		return false
	}
	for obj, l := range closures {
		if l != lit {
			continue
		}
		// Bound to a local: escapes only if used other than being called.
		escapes := false
		for id, use := range pass.TypesInfo.Uses {
			if use != obj {
				continue
			}
			if call, ok := parent[id].(*ast.CallExpr); ok && call.Fun == id {
				continue
			}
			escapes = true
		}
		return escapes
	}
	return true
}

// extractCallFacts records one call's contribution: allocation builtins,
// call edges, atomic.Pointer and WaitGroup operations, and parameter
// forwarding.
func extractCallFacts(pass *Pass, f *FuncFacts, call *ast.CallExpr, enclosing *ast.FuncDecl,
	params map[types.Object]int, provenanced map[string]bool,
	noteAlloc func(ast.Node, string), seenCall map[string]bool) {

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				noteAlloc(call, "make")
			case "new":
				noteAlloc(call, "new")
			case "append":
				if len(call.Args) > 0 {
					dst := ast.Unparen(call.Args[0])
					if _, ok := dst.(*ast.SliceExpr); !ok && !provenanced[types.ExprString(dst)] {
						noteAlloc(call, "append without capacity provenance")
					}
				}
			}
			return
		}
	}

	callee := funcObj(pass.TypesInfo, call)
	if callee == nil {
		return
	}
	key := funcKey(callee)

	// atomic.Pointer and sync.WaitGroup operations are structural facts,
	// not call edges.
	if callee.Pkg() != nil {
		switch callee.Pkg().Path() {
		case "sync/atomic":
			if recvTypeName(callee) == "Pointer" {
				if fk := atomicFieldKey(pass, call); fk != "" {
					switch callee.Name() {
					case "Load":
						f.PtrLoads = mergeStrings(f.PtrLoads, []string{fk})
					case "Store":
						f.PtrStores = mergeStrings(f.PtrStores, []string{fk})
					case "Swap":
						f.PtrSwaps = mergeStrings(f.PtrSwaps, []string{fk})
					case "CompareAndSwap":
						f.PtrCAS = mergeStrings(f.PtrCAS, []string{fk})
					}
				}
				return
			}
		case "sync":
			if recvTypeName(callee) == "WaitGroup" {
				if fk := syncFieldKey(pass, call); fk != "" {
					switch callee.Name() {
					case "Done":
						f.WGDone = mergeStrings(f.WGDone, []string{fk})
					case "Wait":
						f.WGWait = mergeStrings(f.WGWait, []string{fk})
					}
				}
				return
			}
		}
	}

	if ext, ok := externalFacts[key]; ok && ext.Allocates {
		noteAlloc(call, ext.AllocDesc)
	}
	if !seenCall[key] {
		seenCall[key] = true
		f.Calls = append(f.Calls, key)
	}

	// Parameter forwarding: an argument that is a func-typed parameter of
	// the enclosing function.
	for ai, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			continue
		}
		pi, isParam := params[obj]
		if !isParam {
			continue
		}
		if _, isSig := obj.Type().Underlying().(*types.Signature); !isSig {
			continue
		}
		f.ParamForwards = append(f.ParamForwards, ParamForward{Callee: key, ArgIndex: ai, ParamIndex: pi})
	}
	_ = enclosing
}

// recvTypeName returns the receiver's named-type name of a method, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// atomicFieldKey resolves the storage a method like s.snap.Load() operates
// on to a stable key: "pkg/path.Type.field" for struct fields,
// "pkg/path.var" for package-level vars, "" otherwise (locals are
// intra-function and keyed by object identity in the analyzers).
func atomicFieldKey(pass *Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return storageKey(pass, sel.X)
}

// syncFieldKey is atomicFieldKey for WaitGroup methods.
func syncFieldKey(pass *Pass, call *ast.CallExpr) string {
	return atomicFieldKey(pass, call)
}

// storageKey names the storage an expression denotes, for cross-function
// matching. Fields are keyed by their declaring struct; package vars by
// path; anything else (locals, map/slice elements) returns "".
func storageKey(pass *Pass, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		fieldObj, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var)
		if !ok || !fieldObj.IsField() {
			return ""
		}
		recv := pass.TypesInfo.TypeOf(e.X)
		if recv == nil {
			return ""
		}
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fieldObj.Name()
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			return ""
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// paramObjects maps a function's parameter objects to their indices.
func paramObjects(pass *Pass, fn *ast.FuncDecl) map[types.Object]int {
	out := map[types.Object]int{}
	if fn.Type.Params == nil {
		return out
	}
	i := 0
	for _, field := range fn.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				out[obj] = i
			}
			i++
		}
	}
	return out
}

// trimPath shortens an absolute filename to its base for compact
// cross-file diagnostics (the full position is on the diagnostic itself).
func trimPath(filename string) string {
	if i := strings.LastIndex(filename, "/"); i >= 0 {
		return filename[i+1:]
	}
	return filename
}

// mergeStrings unions b into a, keeping a sorted and deduplicated.
func mergeStrings(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	out := append(append([]string(nil), a...), b...)
	sort.Strings(out)
	return dedupSorted(out)
}

func dedupSorted(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// mergeInts unions b into a, sorted and deduplicated.
func mergeInts(a, b []int) []int {
	out := append(append([]int(nil), a...), b...)
	sort.Ints(out)
	dst := out[:0]
	for i, x := range out {
		if i == 0 || out[i-1] != x {
			dst = append(dst, x)
		}
	}
	return dst
}
