// Package floatorder guards the engine's determinism invariant: every
// floating-point reduction in the hot-path packages must combine its
// terms in a fixed order, so that a selection's bits are a function of
// its input alone (DESIGN.md §5b). Accumulating into a float across a
// range over a map breaks that promise — map iteration order is
// randomized, so the sum's rounding changes from run to run — and is
// reported. The blessed pattern is a reduction over a slice in index
// order into one accumulator.
package floatorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"geosel/tools/geolint/internal/analysis"
)

// Analyzer is the floatorder check.
var Analyzer = &analysis.Analyzer{
	Name: "floatorder",
	Doc:  "flags float64 accumulation over map iteration order in the hot-path packages",
	PkgFilter: func(pkgPath string) bool {
		for _, p := range []string{"internal/core", "internal/prefetch", "internal/sampling", "internal/isos"} {
			if strings.HasSuffix(pkgPath, p) || strings.Contains(pkgPath, p+"/") {
				return true
			}
		}
		return false
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if rng, ok := n.(*ast.RangeStmt); ok {
				checkMapRange(pass, rng)
			}
			return true
		})
	}
	return nil
}

// checkMapRange reports float accumulators updated inside a range over a
// map.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	reportEscapingFloatAccum(pass, rng.Body, rng.Pos(), rng.End(),
		"float accumulation over map iteration order is nondeterministic; iterate a sorted slice in index order")
}

// reportEscapingFloatAccum reports compound float assignments inside
// body whose target variable is declared outside [lo, hi) — i.e. an
// accumulator that outlives the nondeterministically ordered loop.
// Indexed writes (out[i] += ...) are per-element and therefore fine.
func reportEscapingFloatAccum(pass *analysis.Pass, body *ast.BlockStmt, lo, hi token.Pos, msg string) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		for _, lhs := range as.Lhs {
			obj := accumTarget(pass, lhs)
			if obj == nil || !isFloat(obj.Type()) {
				continue
			}
			if obj.Pos() >= lo && obj.Pos() < hi {
				continue // loop-local accumulator: reset every iteration, so order cannot leak
			}
			if pass.Suppressed(as.Pos(), "floatorder") {
				continue
			}
			pass.Reportf(as.Pos(), "%s accumulates into %s declared outside the loop: %s", as.Tok, obj.Name(), msg)
		}
		return true
	})
}

// accumTarget resolves the variable behind an accumulation target,
// returning nil for targets (like index expressions) that are
// per-element and deterministic.
func accumTarget(pass *analysis.Pass, lhs ast.Expr) types.Object {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[lhs]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[lhs.Sel]
	}
	return nil
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
