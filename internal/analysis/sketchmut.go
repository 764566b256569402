package analysis

import (
	"go/ast"
	"go/types"
)

// SketchMut enforces the snapshot-immutability contract the cache,
// cluster, and planner layers depend on: a published *ris.Collection or
// *graph.Graph is never mutated. Construction happens behind an
// allowlist (builders, ApplyDelta, Refresh, the payload decoders build
// fresh values via composite literals); everywhere else, assigning to a
// field of either type through a pointer — or storing into one of their
// CSR backing slices, including slices obtained from aliasing accessors
// like Graph.OutCSR, the per-row Graph.InThresholds or the per-page
// Graph.OutPageThresholds, whose slices are windows into pages that later
// snapshots share — is an error, not a
// style problem. Inside the
// allowlist, an index write through a value copy is an error too: the
// copy shares its source's arrays, which ApplyDelta relies on.
var SketchMut = &Analyzer{
	Name: "sketchmut",
	Doc:  "flag writes to ris.Collection / graph.Graph snapshots outside their construction allowlist",
	Run:  runSketchMut,
}

// protectedType names one immutable-after-publication type: which
// functions may write its fields, and which accessor methods return
// slices aliasing its backing arrays (so writes through them are writes
// to the snapshot).
type protectedType struct {
	pkgPath string
	name    string
	allow   map[string]bool
	shared  map[string]bool
}

var protectedTypes = []protectedType{
	{
		pkgPath: "fairtcim/internal/ris",
		name:    "Collection",
		allow:   set("Refresh"),
		shared:  set("PoolSizes"),
	},
	{
		pkgPath: "fairtcim/internal/graph",
		name:    "Graph",
		allow:   set("Build", "MustBuild", "buildGroupIndex", "WithGroups", "ApplyDelta"),
		// Whole arrays (the CSR offsets and targets, the group index),
		// per-row windows into the CSR and the probability and threshold
		// pages, and the tail of a threshold page.
		shared: set("OutCSR", "InCSR", "GroupMembers", "GroupSizes",
			"OutEdges", "InEdges", "OutNeighbors", "InNeighbors", "InThresholds", "OutPageThresholds"),
	},
}

func protectedOf(t types.Type) *protectedType {
	for i := range protectedTypes {
		p := &protectedTypes[i]
		if isNamedType(t, p.pkgPath, p.name) {
			return p
		}
	}
	return nil
}

func runSketchMut(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				checkFuncMut(pass, fn)
			}
		}
	}
	return nil
}

func checkFuncMut(pass *Pass, fn *ast.FuncDecl) {
	// Slices returned by aliasing accessors share the snapshot's backing
	// arrays: record locals bound to such calls so index writes through
	// them are caught too.
	tainted := map[types.Object]string{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		acc := sharedAccessor(pass, as.Rhs[0])
		if acc == "" {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					tainted[obj] = acc
				} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
					tainted[obj] = acc
				}
			}
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWriteMut(pass, fn, tainted, lhs)
			}
		case *ast.IncDecStmt:
			checkWriteMut(pass, fn, tainted, n.X)
		}
		return true
	})
}

// sharedAccessor names the aliasing accessor x calls, as "Type.Method",
// or returns "" when x is not such a call.
func sharedAccessor(pass *Pass, x ast.Expr) string {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return ""
	}
	callee := staticCallee(pass.TypesInfo, call)
	if callee == nil {
		return ""
	}
	recv := callee.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	p := protectedOf(recv.Type())
	if p == nil || !p.shared[callee.Name()] {
		return ""
	}
	return p.name + "." + callee.Name()
}

func checkWriteMut(pass *Pass, fn *ast.FuncDecl, tainted map[types.Object]string, lhs ast.Expr) {
	lhs = ast.Unparen(lhs)
	indexWrite := false
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		indexWrite = true
		lhs = ast.Unparen(ix.X)
	}

	// Index writes through accessor-returned slices, held in a local or
	// indexed straight off the call.
	if acc := sharedAccessor(pass, lhs); acc != "" && indexWrite {
		pass.Reportf(lhs.Pos(),
			"write to slice returned by %s aliases the snapshot's backing array; copy before modifying", acc)
		return
	}
	if id, ok := lhs.(*ast.Ident); ok && indexWrite {
		if obj := pass.TypesInfo.Uses[id]; obj != nil {
			if acc, shared := tainted[obj]; shared {
				pass.Reportf(id.Pos(),
					"write to slice returned by %s aliases the snapshot's backing array; copy before modifying", acc)
				return
			}
		}
	}

	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return
	}
	p := protectedOf(selection.Recv())
	if p == nil {
		return
	}
	valueCopy := isLocalValue(pass, sel.X)
	if p.allow[fn.Name.Name] {
		// Constructors may store fields, but an index write through a
		// local value copy (`out := *g; out.probs[i] = p`) patches the
		// backing array the copy still shares with g.
		if indexWrite && valueCopy {
			pass.Reportf(sel.Pos(),
				"index write to %s.%s field %s through a value copy lands in the array it shares with the source snapshot; patch a clone, then store it",
				p.pkgPath, p.name, sel.Sel.Name)
		}
		return
	}
	// Writing a field of a local *value* copy before it is published is
	// construction, not mutation (refresh's `nc := *c; nc.g = newG`
	// pattern) — but only for direct field stores: an index write into a
	// copied struct still lands in the shared backing array.
	if valueCopy && !indexWrite {
		return
	}
	pass.Reportf(sel.Pos(),
		"write to %s.%s field %s outside its construction allowlist (%s is immutable once published)",
		p.pkgPath, p.name, sel.Sel.Name, p.name)
}

// isLocalValue reports whether x is a local variable or parameter held by
// value, not by pointer: for a protected type, a copy of a snapshot whose
// slice fields still share the snapshot's arrays.
func isLocalValue(pass *Pass, x ast.Expr) bool {
	base, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return false
	}
	if _, isPtr := pass.TypesInfo.TypeOf(base).(*types.Pointer); isPtr {
		return false
	}
	v, ok := pass.TypesInfo.Uses[base].(*types.Var)
	return ok && !v.IsField()
}
