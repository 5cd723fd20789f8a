// Package wirerelay re-exports wiredec's decoder. Its own summary is
// tainted only through wiredec's, so it pins the cross-package fixpoint:
// the summary must be recomputed once the foreign one is known.
package wirerelay

import "rups/internal/analysis/testdata/src/wiredec"

// Count returns the wire-decoded count unchanged.
func Count(buf []byte) uint32 {
	return wiredec.Count(buf)
}
