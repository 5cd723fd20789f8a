package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule, or NaN for an empty sample. xs is not modified. +Inf entries are
// legal: they stand for queries that missed every limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, 0 when den is 0 (a ratio of nothing reads as none).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one reported figure: its value, unit, and how many samples
// it summarises.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// report collects a run's metrics in print order.
type report struct {
	ms []metric
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.ms = append(r.ms, metric{name, v, unit, n})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes one human-readable line per metric.
func (r *report) print(title string) {
	fmt.Printf("-- %s\n", title)
	for _, m := range r.ms {
		fmt.Printf("%-34s %14.6g %-8s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
}

// promSample is a scraped Prometheus exposition: series text (name plus
// any label set) to value.
type promSample map[string]float64

// parseProm reads the text exposition format the server's /metrics
// endpoint writes; comment lines and unparsable values are skipped.
func parseProm(text string) promSample {
	out := promSample{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta returns after[name] − before[name] (a missing series reads 0).
func delta(before, after promSample, name string) float64 {
	return after[name] - before[name]
}
