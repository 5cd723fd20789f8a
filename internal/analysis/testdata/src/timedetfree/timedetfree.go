// Package timedetfree is outside the deterministic set: timedet stays
// silent on its wall-clock reads and global draws.
package timedetfree

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock: silent outside the restricted packages.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Jitter draws from the global source: silent here too.
func Jitter() float64 {
	return rand.Float64()
}
