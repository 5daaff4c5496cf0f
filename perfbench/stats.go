package main

// Statistics helpers: latency samples in which a failed or refused request
// counts as missing every limit, percentiles that are reported only with
// enough samples beyond them, and the metric table the benchmark prints.

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// Samples collects one timing per attempted operation. A failure is stored
// as +Inf, so it sits beyond every percentile and counts as a miss of any
// latency limit.
type Samples struct {
	v      []float64
	failed int
}

// Add records a completed operation.
func (s *Samples) Add(x float64) { s.v = append(s.v, x) }

// Fail records an operation that failed, was refused or returned a wrong
// output.
func (s *Samples) Fail() {
	s.v = append(s.v, math.Inf(1))
	s.failed++
}

// N is the number of attempted operations.
func (s *Samples) N() int { return len(s.v) }

// Failed is the number of failed operations.
func (s *Samples) Failed() int { return s.failed }

// Quantile returns the q-quantile (nearest rank) and whether it may be
// reported: the median always may, given a sample, and any higher quantile
// only when at least minBeyond samples lie strictly beyond its rank.
func (s *Samples) Quantile(q float64) (float64, bool) {
	n := len(s.v)
	if n == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), s.v...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	if q > 0.5 && n-1-rank < minBeyond {
		return 0, false
	}
	return sorted[rank], true
}

// Mean returns the mean of the completed operations.
func (s *Samples) Mean() float64 {
	var sum float64
	var n int
	for _, x := range s.v {
		if !math.IsInf(x, 1) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Sum returns the total of the completed operations.
func (s *Samples) Sum() float64 { return s.Mean() * float64(len(s.v)-s.failed) }

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Metric is one reported figure.
type Metric struct {
	Name  string
	Value float64
	Unit  string
	// N is the number of samples behind the value.
	N int
}

// Report is the metric set of one run, in insertion order.
type Report struct {
	metrics []Metric
	errs    []error
}

// Set records a metric; an invalid name, a repeated name or a non-finite
// value is an error the run reports instead of a number.
func (r *Report) Set(name string, value float64, unit string, n int) {
	switch {
	case !metricName.MatchString(name):
		r.errs = append(r.errs, fmt.Errorf("metric name %q does not match %s", name, metricName))
	case math.IsNaN(value) || math.IsInf(value, 0):
		r.errs = append(r.errs, fmt.Errorf("metric %s is %g", name, value))
	default:
		for _, m := range r.metrics {
			if m.Name == name {
				r.errs = append(r.errs, fmt.Errorf("metric %s set twice", name))
				return
			}
		}
		r.metrics = append(r.metrics, Metric{Name: name, Value: value, Unit: unit, N: n})
	}
}

// SetQuantile records the q-quantile of s under name, or an error when s
// has too few samples for it.
func (r *Report) SetQuantile(name string, s *Samples, q float64, unit string) {
	v, ok := s.Quantile(q)
	if !ok {
		r.errs = append(r.errs, fmt.Errorf("metric %s: %d samples are too few for the %g quantile", name, s.N(), q))
		return
	}
	r.Set(name, v, unit, s.N())
}

// Errs returns the problems met while recording.
func (r *Report) Errs() []error { return r.errs }

// WriteTable prints one line per metric: name, value, unit, sample count.
func (r *Report) WriteTable(w io.Writer) {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-36s %16.6f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
}

// JSON returns the metrics object of the result line.
func (r *Report) JSON() map[string]any {
	out := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return out
}
