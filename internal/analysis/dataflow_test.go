package analysis_test

import (
	"testing"

	"singlingout/internal/analysis"
	"singlingout/internal/analysis/analysistest"
)

// The two dataflow analyzers: each fixture pairs violations with the
// structurally-identical compliant shape (and a lint:ignore escape),
// so the tests pin both directions — the finding fires, and the
// sanctioned pattern stays quiet.

func TestRawDataFlow(t *testing.T) {
	analysistest.Run(t, analysis.RawDataFlow, "rawdataflow")
}

func TestLockDiscipline(t *testing.T) {
	analysistest.Run(t, analysis.LockDiscipline, "lockdiscipline")
}
