// Package rangefinder simulates the SF02 laser rangefinder the paper mounts
// on the rear car for ground truth (§VI-A): centimetre-grade distance
// readings up to an effective range of 50 m, no reading beyond it.
package rangefinder

import (
	"math"

	"rups/internal/noise"
)

// MaxRangeM is the instrument's effective range.
const MaxRangeM = 50.0

// NoiseSigmaM is the per-reading measurement noise.
const NoiseSigmaM = 0.03

// Rangefinder is one mounted unit. Each reading's noise is keyed to the
// unit's seed and the reading's time, so a reading depends on nothing but
// what is measured and when: concurrent and reordered readings are
// deterministic.
type Rangefinder struct {
	seed uint64
}

// New creates a rangefinder with its own noise stream.
func New(seed uint64) *Rangefinder {
	return &Rangefinder{seed: seed}
}

// Measure reads the true distance at time t; ok is false beyond the
// effective range (no return signal).
func (r *Rangefinder) Measure(t, trueDist float64) (d float64, ok bool) {
	if trueDist < 0 || trueDist > MaxRangeM {
		return 0, false
	}
	d = trueDist + NoiseSigmaM*noise.Gaussian(r.seed, math.Float64bits(t))
	if d < 0 {
		d = 0
	}
	return d, true
}
