package rangefinder

import (
	"math"
	"testing"

	"rups/internal/stats"
)

func TestMeasureInRange(t *testing.T) {
	r := New(1)
	var errAcc stats.Online
	for i := 0; i < 1000; i++ {
		truth := float64(i%49) + 0.5
		d, ok := r.Measure(float64(i), truth)
		if !ok {
			t.Fatalf("in-range measurement %v failed", truth)
		}
		errAcc.Add(math.Abs(d - truth))
	}
	if errAcc.Mean() > 3*NoiseSigmaM {
		t.Errorf("mean error %v too large", errAcc.Mean())
	}
}

func TestMeasureOutOfRange(t *testing.T) {
	r := New(2)
	if _, ok := r.Measure(0, MaxRangeM+1); ok {
		t.Error("measured beyond effective range")
	}
	if _, ok := r.Measure(0, -1); ok {
		t.Error("measured negative distance")
	}
	if _, ok := r.Measure(0, MaxRangeM); !ok {
		t.Error("boundary measurement failed")
	}
}

func TestMeasureNonNegative(t *testing.T) {
	r := New(3)
	for i := 0; i < 500; i++ {
		if d, ok := r.Measure(float64(i), 0.001); ok && d < 0 {
			t.Fatal("negative reading")
		}
	}
}
