package writeonly

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

func TestWriteonly(t *testing.T) {
	analysistest.Run(t, Analyzer, "testdata/src/a")
}
