// Package knobplumb verifies that every library-side construction of a
// configuration struct built around the unified engine.Config embed
// actually forwards that embed. Earlier revisions hand-copied each
// engine knob through every layer and this analyzer policed the copies
// field by field; with the engine refactor there is exactly one thing
// to forward — the embedded engine.Config — so the per-knob table is
// gone and the check is structural: a keyed composite literal of an
// embedding struct that sets other fields but omits the Config key
// silently pins every engine knob (metric, K, θ, prefetch tuning,
// serving limits) to its zero value, which is exactly the drift the
// embed was introduced to kill.
// A deliberate all-defaults construction carries a
// "//geolint:defaults" annotation.
package knobplumb

import (
	"go/ast"
	"go/types"
	"strings"

	"geosel/tools/geolint/internal/analysis"
)

// enginePathSuffix identifies the unified config's package by
// import-path suffix, so the check works both on the real module and on
// the self-contained testdata module.
const enginePathSuffix = "internal/engine"

// Analyzer is the knobplumb check.
var Analyzer = &analysis.Analyzer{
	Name: "knobplumb",
	Doc:  "flags keyed composite literals of structs embedding engine.Config that bypass the embed (library packages only)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		// Binaries and examples choose their own config values; the
		// plumbing obligation is on library wrappers.
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			check(pass, lit)
			return true
		})
	}
	return nil
}

func check(pass *analysis.Pass, lit *ast.CompositeLit) {
	if len(lit.Elts) == 0 {
		return // zero value: an explicit "all defaults" is fine
	}
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok || !embedsEngineConfig(st) {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return // positional literal: every field is present by construction
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Config" {
			return
		}
	}
	if pass.Suppressed(lit.Pos(), "defaults") {
		return
	}
	pass.Reportf(lit.Pos(), "composite literal of %s sets %d field(s) but bypasses the embedded engine.Config; forward the embed (Config: ...) or annotate the literal with //geolint:defaults",
		tv.Type, len(lit.Elts))
}

// embedsEngineConfig reports whether the struct has an embedded field
// named Config whose type comes from the engine package.
func embedsEngineConfig(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Embedded() || f.Name() != "Config" {
			continue
		}
		named, ok := f.Type().(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj != nil && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), enginePathSuffix) {
			return true
		}
	}
	return false
}
