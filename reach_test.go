package samo_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// reachAllow names the declarations no entry point reaches that stay anyway,
// each with the tests that need it: oracles, tools and fault hooks for
// reachable code that tests of ANOTHER package call (Go cannot share _test.go
// code) or that sit beside such a sibling; the rest moved or went.
var reachAllow = map[string]string{
	"internal/tensor.MaxAbsDiff":          "tolerance oracle: core TestSAMOMatchesMaskedDenseTraining, nn TestSparseLinearMatchesMaskedDense, sparse TestSpMMTGolden",
	"internal/tensor.Tensor.Clone":        "snapshot before the code under test mutates: core TestSAMOMatchesMaskedDenseTraining, nn TestRecomputeMatchesPlainGradients, sparse FuzzSpMMTInto",
	"internal/tensor.MatMul":              "allocating dense reference: nn TestSparseLinearDenseCopyNeverStale, tensor TestMatMulGolden",
	"internal/tensor.MatMulT":             "allocating dense reference: sparse TestSpMMTGolden and FuzzSDDMMInto, nn TestSparseLinearOptimizerAliasing",
	"internal/tensor.TMatMul":             "allocating dense reference, third of the family above: tensor TestTMatMulGolden, TestMatMulTAndTMatMul",
	"internal/tensor.Transpose":           "operand builder: sparse TestSparseKernelsBitwiseDeterminism, nn TestSparseLinearMatchesMaskedDense, core TestSparseExecMatchesMaskedDenseTraining",
	"internal/tensor.Sum":                 "nn TestCrossEntropyIgnoreIndex, tensor TestMaxPoolForwardBackward",
	"internal/tensor.Dot":                 "nn scalarLoss (every numeric gradient check), tensor FuzzCol2ImAdjoint",
	"internal/nn.CrossEntropy":            "allocating loss: core TestGradHookClearsDenseGrads, root BenchmarkAblationLayerGranular, nn TestCrossEntropyValueAndGrad",
	"internal/nn.Model.Forward":           "arena-less forward: core TestGradHookClearsDenseGrads, root BenchmarkAblationLayerGranular, nn TestModelEndToEndGradient",
	"internal/nn.Model.Backward":          "arena-less backward: same tests as Model.Forward",
	"internal/nn.ExecAuto":                "the zero ExecMode every SparseLinear runs with; spelled only by core TestSparseExecTrainStepDeterminism's auto case, and deleting it renumbers ExecSparse/ExecDense",
	"internal/nn.WithRecompute":           "DELIBERATE EXCEPTION, no entry point wires it: AxoNN §II-E activation checkpointing, which the simulator's 4/3 flop factor assumes; axonn TestEngineWithRecomputeLayers pins it bitwise in the engine. Wiring it is a knob for a later PR",
	"internal/sparse.CSR.Dense":           "nn TestShrinkPatternMatchesFreshLayer, prune TestMaterializeCSR, core TestSparseExecMatchesMaskedDenseTraining",
	"internal/core.SAMOBreakdown":         "§III-D analytic reference for the live ledger: root BenchmarkAblationSharedIndex, core TestMemoryLedgerMatchesAnalyticModel",
	"internal/core.DefaultBreakdown":      "dense half of the same reference: core TestMemoryLedgerMatchesAnalyticModel, TestBreakdownMatchesClosedForm",
	"internal/hw.Machine.P2PTime":         "root BenchmarkAblationGinterChoice, hw TestP2PTimeOrdering",
	"internal/simulate.AnalyticBubble":    "eq. 7 oracle for SimulatePipeline: simulate TestBubbleMatchesAnalyticZeroXfer",
	"internal/simulate.AnalyticSendCount": "eq. 9 beside it: simulate TestAnalyticSendCount",
	"internal/comm.Fabric.PooledBytes":    "bound hook (with Pool.Retained under it): comm TestBufferPoolBoundedAcrossFabrics, TestCloseDrainsPoolAndPoisons, TestBufferPoolCapacityReuse",
	"internal/comm/tcp.Transport.Abort":   "fault hook, drops every conn without a poison frame (SIGKILL): tcp TestChaosHardClosePeerMidCollective, TestChaosHardCloseMidSend, TestChaosAbortDuringBarrier",
}

type reachImporter func(string) (*types.Package, error)

func (f reachImporter) Import(path string) (*types.Package, error) { return f(path) }

// TestReachability fails on a declaration in a non-test file that no entry
// point reaches — every main and init, blank declarations, and the root
// package's exported names (the facade is the library's entry point) — unless
// reachAllow names it, and on a reachAllow entry that is gone or has become
// reachable. A package nothing imports fails as a whole. Naming a type does
// not make its methods live: a method is live when reachable code names it,
// or when a reachable type implements a reachable interface — named, literal,
// a parameter of something reachable, or fmt.Stringer, which %v calls.
func TestReachability(t *testing.T) {
	const mod = "github.com/sparse-dl/samo"
	short := strings.NewReplacer(mod+"/", "", mod, "", "(*", "", "(", "", ")", "") // of Func.FullName
	build.Default.CgoEnabled = false                                               // type-check the pure-Go net and os/user
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	// One Info for every package, so an object is one pointer everywhere.
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkgs, byName, roots := map[string]*types.Package{}, map[string]types.Object{}, []types.Object(nil)
	names := map[types.Object]string{}        // declaration → "internal/tensor.Tensor.Row"
	uses := map[types.Object][]types.Object{} // → every object its source text names
	imp := reachImporter(func(path string) (*types.Package, error) {
		if p := pkgs[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	// Dependencies first, so a module package is checked before its importers.
	out, err := exec.Command("go", "list", "-deps", "-f", "{{if not .Standard}}{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}{{end}}", "./...").Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, srcs, _ := strings.Cut(line, " ")
		var files []*ast.File
		for _, src := range strings.Fields(srcs) {
			f, err := parser.ParseFile(fset, src, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		if pkgs[path], err = (&types.Config{Importer: imp}).Check(path, fset, files, info); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				var ids []*ast.Ident
				switch n := n.(type) {
				case *ast.FuncDecl:
					ids = []*ast.Ident{n.Name}
				case *ast.TypeSpec:
					ids = []*ast.Ident{n.Name}
				case *ast.ValueSpec:
					ids = n.Names
				default:
					return true // the file and its GenDecls
				}
				var us []types.Object
				ast.Inspect(n, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
						us = append(us, info.Uses[id])
					} else if it, ok := n.(*ast.InterfaceType); ok { // a literal, as a nameless type
						us = append(us, types.NewTypeName(token.NoPos, nil, "", info.TypeOf(it)))
					}
					return true
				})
				for _, id := range ids {
					o, name := info.Defs[id], short.Replace(path+"."+id.Name)
					fn, _ := o.(*types.Func)
					if fn != nil {
						name = short.Replace(fn.FullName())
					}
					names[o], byName[name], uses[o] = name, o, us
					if id.Name == "_" || fn != nil && (id.Name == "init" || id.Name == "main" && f.Name.Name == "main") || path == mod && id.IsExported() {
						roots = append(roots, o)
					}
				}
				return false // declarations inside function bodies are not nodes
			})
		}
	}
	closure := func(roots []types.Object) map[types.Object]bool {
		live, ifaces, named := map[types.Object]bool{}, map[*types.Interface]bool{}, []*types.Named(nil)
		var addIfaces func(t types.Type)
		addIfaces = func(t types.Type) {
			switch u := t.Underlying().(type) {
			case *types.Interface:
				ifaces[u] = true
			case *types.Slice: // variadic parameters
				addIfaces(u.Elem())
			case *types.Signature:
				for i := 0; i < u.Params().Len(); i++ {
					addIfaces(u.Params().At(i).Type())
				}
			}
		}
		var mark func(objs ...types.Object)
		mark = func(objs ...types.Object) {
			for _, o := range objs {
				if fn, ok := o.(*types.Func); ok {
					o = fn.Origin() // a generic type's method, not its instantiation
				}
				if o == nil || live[o] {
					continue
				}
				live[o] = true
				addIfaces(o.Type())
				if tn, ok := o.(*types.TypeName); ok && names[o] != "" && !tn.IsAlias() {
					named = append(named, tn.Type().(*types.Named))
				}
				mark(uses[o]...)
			}
		}
		fmtPkg, _ := std.Import("fmt")
		addIfaces(fmtPkg.Scope().Lookup("Stringer").Type())
		mark(roots...)
		for n := 0; n != len(live); {
			n = len(live)
			for _, nt := range named {
				for it := range ifaces {
					// Unspecified on an uninstantiated generic type: any method of the name.
					if ptr := types.NewPointer(nt); nt.TypeParams().Len() > 0 || types.Implements(ptr, it) {
						for i := 0; i < it.NumMethods(); i++ {
							m, _, _ := types.LookupFieldOrMethod(ptr, true, it.Method(i).Pkg(), it.Method(i).Name())
							mark(m)
						}
					}
				}
			}
		}
		return live
	}
	fromEntry, allowed := closure(roots), roots
	for name := range reachAllow {
		if o := byName[name]; o == nil || fromEntry[o] {
			t.Errorf("reachAllow[%q]: no such declaration, or an entry point reaches it now; drop the entry", name)
		} else {
			allowed = append(allowed, o)
		}
	}
	live := closure(allowed)
	var dead []string
	for o, name := range names {
		if !live[o] {
			dead = append(dead, fset.Position(o.Pos()).String()+": "+name)
		}
	}
	if sort.Strings(dead); len(dead) > 0 {
		t.Errorf("%d declarations only tests reach; delete each, move it into its package's _test.go, or name it in reachAllow with the test that needs it:\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
}
