package main

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"time"
)

// minBeyond is the fewest samples that must lie above a reported
// percentile; a tail estimated from fewer is noise, not a number.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// is an error when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it; need %d",
			100*p, n, beyond, minBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// median is the plain middle value of a handful of repeats (set-up
// runs, per-layer timings). It is not a tail estimate, so the
// minBeyond rule does not apply; xs must be non-empty.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricNameRE is the character set BENCHMARK.json allows for
// metric and workload names.
var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE is the character set allowed for units.
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named metrics and the first error any of them
// hit, so a run fails instead of printing a misleading number.
type metricSet struct {
	m   map[string]metric
	err error
}

func newMetricSet() *metricSet { return &metricSet{m: make(map[string]metric)} }

func (s *metricSet) set(name, unit string, v float64) {
	if !metricNameRE.MatchString(name) || !unitRE.MatchString(unit) {
		s.fail(fmt.Errorf("invalid metric name %q or unit %q", name, unit))
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.fail(fmt.Errorf("metric %s is %v", name, v))
		return
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

// pct records the p-quantile of samples, or fails the set.
func (s *metricSet) pct(name string, samples []float64, p float64) {
	v, err := percentile(samples, p)
	if err != nil {
		s.fail(fmt.Errorf("%s: %w", name, err))
		return
	}
	s.set(name, "ms", v)
}

func (s *metricSet) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}
