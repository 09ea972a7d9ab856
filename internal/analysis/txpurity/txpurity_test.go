package txpurity_test

import (
	"testing"

	"repro/internal/analysis/framework/checktest"
	"repro/internal/analysis/txpurity"
)

func TestTxPurity(t *testing.T) {
	checktest.Run(t, "purity", txpurity.Analyzer)
}
