// Package sim (golden for the timedet analyzer) is named into the
// deterministic set on purpose: everything here is under the per-seed
// reproducibility contract.
package sim

import (
	"math/rand"
	"time"

	"rups/internal/analysis/testdata/src/timedetfree"
)

// Tick reads the wall clock directly.
func Tick() int64 {
	return time.Now().UnixNano() // want `time.Now in deterministic simulation code`
}

// Age uses time.Since, also wall-clock.
func Age(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time.Since in deterministic simulation code`
}

// Left uses time.Until, also wall-clock.
func Left(t1 time.Time) time.Duration {
	return time.Until(t1) // want `time.Until in deterministic simulation code`
}

// Deadline only does arithmetic on a timestamp it was handed: silent.
func Deadline(t0 time.Time) time.Time {
	return t0.Add(time.Second)
}

// Jitter draws from the global math/rand source.
func Jitter() float64 {
	return rand.Float64() // want `global rand.Float64 in deterministic simulation code`
}

// Pick draws an index from the global source.
func Pick(n int) int {
	return rand.Intn(n) // want `global rand.Intn in deterministic simulation code`
}

// Noise is deterministic: an explicitly seeded source, silent.
func Noise(seed int64) float64 {
	return rand.New(rand.NewSource(seed)).Float64()
}

// Later reads the clock inside a closure: still a direct site.
func Later() func() int64 {
	return func() int64 {
		return time.Now().Unix() // want `time.Now in deterministic simulation code`
	}
}

// Stamp calls into a package outside the deterministic set: the clock
// read lives there, so the call here is silent.
func Stamp() int64 {
	return timedetfree.Stamp()
}
