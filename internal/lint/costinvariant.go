package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// CostInvariant statically rejects cost-model literals that violate
// the paper's algorithm preconditions. Algorithm 1 requires every
// Tcomm/Tcomp to be non-negative and null at x = 0; Algorithm 2
// additionally requires them increasing; the guaranteed heuristic and
// the LP formulation (Eq. 2/4) require affine coefficients. A
// negative α or β, or a cost table that is nonzero at zero items,
// silently produces schedules the optimality proofs do not cover —
// catch the constant cases at compile time instead of at Validate
// time deep inside a run.
var CostInvariant = &Analyzer{
	Name: "costinvariant",
	Doc: "cost-function literals must satisfy the paper's preconditions: " +
		"non-negative α/β constants (Eq. 2) and tables null at zero items; " +
		"solver entry points must not receive constant negative item counts",
	Run: runCostInvariant,
}

// costPkgPath and corePkgPath locate the checked literal types.
const (
	costPkgPath = "repro/internal/cost"
	corePkgPath = "repro/internal/core"
)

// negativeFieldRules maps (package, type) to the struct fields that
// must not hold negative constants, with the invariant each encodes.
var negativeFieldRules = map[[2]string]map[string]string{
	{costPkgPath, "Linear"}: {
		"PerItem": "a negative per-item cost violates the non-negativity precondition of Algorithm 1 (Eq. 2)",
	},
	{costPkgPath, "Affine"}: {
		"Fixed":   "a negative fixed cost violates the non-negativity precondition of the affine heuristic (Eq. 2)",
		"PerItem": "a negative per-item cost makes the affine function decreasing, breaking Algorithm 2's precondition",
	},
	{costPkgPath, "Scaled"}: {
		"Factor": "a negative scale factor flips the cost's sign, violating non-negativity (Eq. 2)",
	},
	{costPkgPath, "Breakpoint"}: {
		"X": "a negative breakpoint abscissa is outside the cost domain x >= 0",
		"Y": "a negative breakpoint cost violates the non-negativity precondition (Eq. 2)",
	},
	{corePkgPath, "LinearProcessor"}: {
		"Alpha": "a negative α (per-item communication cost) violates the Section 4 closed form's precondition",
		"Beta":  "a negative β (per-item computation cost) violates the Section 4 closed form's precondition",
	},
}

// itemCountArgs maps core solver entry points to the index of their
// item-count argument. Package-level functions are keyed by name,
// methods by "Receiver.Name". A constant negative count at any of
// these call sites is a guaranteed runtime validation error (the
// paper's algorithms are defined for n >= 0), so reject it at vet
// time. The Plan/Engine entries keep the incremental-solver surface
// (Plan.Lookup subproblems, Plan.Resolve re-solves, Engine.Solve)
// under the same invariant as the from-scratch solvers.
var itemCountArgs = map[string]int{
	"Algorithm1":          1,
	"Algorithm2":          1,
	"Algorithm2Parallel":  1,
	"SolveLinear":         1,
	"SolveLinearRational": 1,
	"Heuristic":           1,
	"HeuristicRational":   1,
	"BruteForce":          1,
	"SolvePlan":           1,
	"SolveCoarse":         1,
	"SolveCoarseOpt":      1,
	"Uniform":             1,
	"Plan.Lookup":         0,
	"Plan.Resolve":        0,
	"Engine.Solve":        1,
}

func runCostInvariant(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CompositeLit:
				named := namedStructType(pass, node)
				if named == nil {
					return true
				}
				pkg := named.Obj().Pkg()
				if pkg == nil {
					return true
				}
				key := [2]string{pkg.Path(), named.Obj().Name()}
				if rules, ok := negativeFieldRules[key]; ok {
					checkNegativeFields(pass, node, named, rules)
				}
				if key == [2]string{costPkgPath, "Table"} {
					checkTableLiteral(pass, node, named)
				}
			case *ast.CallExpr:
				checkItemCountArg(pass, node)
			}
			return true
		})
	}
	return nil
}

// checkItemCountArg rejects constant negative item counts passed to
// the core solver entry points listed in itemCountArgs. Test files
// are exempt: the solver tests deliberately pass negative counts to
// exercise the runtime validation this check front-runs.
func checkItemCountArg(pass *Pass, call *ast.CallExpr) {
	if fname := pass.Fset.Position(call.Pos()).Filename; strings.HasSuffix(fname, "_test.go") {
		return
	}
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != corePkgPath {
		return
	}
	key := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return
		}
		key = named.Obj().Name() + "." + key
	}
	idx, ok := itemCountArgs[key]
	if !ok || idx >= len(call.Args) {
		return
	}
	if sign, ok := constSign(pass, call.Args[idx]); ok && sign < 0 {
		pass.Reportf(call.Args[idx].Pos(),
			"%s called with a constant negative item count: the paper's solvers are defined for n >= 0 only", key)
	}
}

// namedStructType returns the named struct type of a composite
// literal, or nil (slice/map/array literals, unnamed structs).
func namedStructType(pass *Pass, lit *ast.CompositeLit) *types.Named {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// literalFields yields (field name, value expression) pairs for both
// keyed and positional struct literals.
func literalFields(named *types.Named, lit *ast.CompositeLit) map[string]ast.Expr {
	st := named.Underlying().(*types.Struct)
	out := make(map[string]ast.Expr)
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				out[id.Name] = kv.Value
			}
			continue
		}
		if i < st.NumFields() {
			out[st.Field(i).Name()] = elt
		}
	}
	return out
}

// constSign returns the sign of the expression's constant value, and
// whether the expression is a numeric constant at all.
func constSign(pass *Pass, e ast.Expr) (int, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value), true
	}
	return 0, false
}

// checkNegativeFields reports constant negative values in the fields
// named by rules.
func checkNegativeFields(pass *Pass, lit *ast.CompositeLit, named *types.Named, rules map[string]string) {
	for name, expr := range literalFields(named, lit) {
		why, ruled := rules[name]
		if !ruled {
			continue
		}
		if sign, ok := constSign(pass, expr); ok && sign < 0 {
			pass.Reportf(expr.Pos(), "%s.%s is negative: %s", named.Obj().Name(), name, why)
		}
	}
}

// checkTableLiteral enforces the cost.Table invariants on a literal
// whose Values slice is itself a literal: Values[0] must be 0 (costs
// are null at zero items) and no entry may be a negative constant.
func checkTableLiteral(pass *Pass, lit *ast.CompositeLit, named *types.Named) {
	values, ok := literalFields(named, lit)["Values"]
	if !ok {
		return
	}
	slice, ok := ast.Unparen(values).(*ast.CompositeLit)
	if !ok {
		return
	}
	for i, elt := range slice.Elts {
		if _, isKV := elt.(*ast.KeyValueExpr); isKV {
			return // indexed slice literal; positions are not element order
		}
		sign, ok := constSign(pass, elt)
		if !ok {
			continue
		}
		if i == 0 && sign != 0 {
			pass.Reportf(elt.Pos(), "Table.Values[0] is nonzero: cost functions must be null at zero items (Algorithm 1 precondition)")
		}
		if sign < 0 {
			pass.Reportf(elt.Pos(), "Table.Values[%d] is negative: cost functions must be non-negative (Eq. 2)", i)
		}
	}
}
