package timedet_test

import (
	"testing"

	"rups/internal/analysis/analysistest"
	"rups/internal/analysis/timedet"
)

func TestTimedet(t *testing.T) {
	// The golden "sim" package is inside the deterministic set and
	// timedetfree outside it: its wall-clock reads must stay silent.
	analysistest.Run(t, "../testdata", timedet.Analyzer, "timedet", "timedetfree")
}
