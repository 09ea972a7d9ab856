// Package analysis aggregates the twm-lint analyzer suite: the static
// checks that enforce this repository's transactional usage discipline
// (see DESIGN.md §9). The analyzers are built on the stdlib-only
// framework subpackage and are wired into CI through cmd/twm-lint.
package analysis

import (
	"repro/internal/analysis/atomichygiene"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/rodiscipline"
	"repro/internal/analysis/txescape"
	"repro/internal/analysis/txpurity"
)

// All returns the full analyzer suite in reporting order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		txescape.Analyzer,
		txpurity.Analyzer,
		rodiscipline.Analyzer,
		atomichygiene.Analyzer,
	}
}
