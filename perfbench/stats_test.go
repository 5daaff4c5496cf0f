package main

import (
	"math"
	"strings"
	"testing"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	var s Samples
	for i := 1; i <= 99; i++ {
		s.Add(float64(i))
	}
	if _, ok := s.Quantile(0.9); ok {
		t.Fatal("p90 reported from 99 samples, which leave 9 beyond it")
	}
	s.Add(100)
	v, ok := s.Quantile(0.9)
	if !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %g, %v; want 90, true", v, ok)
	}
	if v, ok := s.Quantile(0.5); !ok || v != 50 {
		t.Fatalf("median of 1..100 = %g, %v", v, ok)
	}
	var one Samples
	one.Add(3)
	if v, ok := one.Quantile(0.5); !ok || v != 3 {
		t.Fatalf("median of one sample = %g, %v", v, ok)
	}
}

func TestReportCarriesSampleCount(t *testing.T) {
	var s Samples
	for i := 0; i < 150; i++ {
		s.Add(1)
	}
	r := &Report{}
	r.SetQuantile("x_p90_ms", &s, 0.9, "ms")
	var b strings.Builder
	r.WriteTable(&b)
	if !strings.Contains(b.String(), "n=150") || !strings.Contains(b.String(), "x_p90_ms") {
		t.Fatalf("table line %q lacks name or sample count", b.String())
	}
	var few Samples
	few.Add(1)
	r.SetQuantile("y_p90_ms", &few, 0.9, "ms")
	if len(r.Errs()) != 1 {
		t.Fatalf("p90 of one sample should be refused, errors %v", r.Errs())
	}
	if _, ok := r.JSON()["y_p90_ms"]; ok {
		t.Fatal("refused metric was recorded")
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range []string{"setup_s", "sched.decide_us_p90", "fabric.overhead_ms_per_cell", "a-b.c_1"} {
		r := &Report{}
		r.Set(name, 1, "count", 1)
		if len(r.Errs()) != 0 {
			t.Errorf("valid name %q refused: %v", name, r.Errs())
		}
	}
	for _, name := range []string{"", "bad name", "p90%", "x/y", "_lead", strings.Repeat("a", 65)} {
		r := &Report{}
		r.Set(name, 1, "count", 1)
		if len(r.Errs()) != 1 {
			t.Errorf("invalid name %q accepted", name)
		}
	}
	r := &Report{}
	r.Set("dup", 1, "count", 1)
	r.Set("dup", 2, "count", 1)
	r.Set("nan", math.NaN(), "count", 1)
	if len(r.Errs()) != 2 {
		t.Errorf("duplicate and NaN metrics: errors %v", r.Errs())
	}
}

// Every metric name the benchmark reports matches the name rule.
func TestReportedNamesValid(t *testing.T) {
	names := []string{"setup_s", "cells_per_s", "peak_rss_mb"}
	for _, p := range []string{"run", "replay", "predict"} {
		names = append(names, p+"_p50_ms", p+"_p90_ms")
	}
	for _, n := range names {
		if !metricName.MatchString(n) {
			t.Errorf("%q does not match %s", n, metricName)
		}
	}
}

func TestFailuresCountAsMisses(t *testing.T) {
	var s Samples
	for i := 0; i < 85; i++ {
		s.Add(1)
	}
	for i := 0; i < 15; i++ {
		s.Fail()
	}
	if s.N() != 100 || s.Failed() != 15 {
		t.Fatalf("N %d failed %d", s.N(), s.Failed())
	}
	// 15% failures sit beyond the p90: the tail misses any limit.
	if v, ok := s.Quantile(0.9); !ok || !math.IsInf(v, 1) {
		t.Fatalf("p90 with 15%% failures = %g, %v; want +Inf", v, ok)
	}
	if v, _ := s.Quantile(0.5); v != 1 {
		t.Fatalf("median = %g", v)
	}
	if s.Mean() != 1 {
		t.Fatalf("mean of completed operations = %g", s.Mean())
	}
	r := &Report{}
	r.SetQuantile("lat_p90_ms", &s, 0.9, "ms")
	if len(r.Errs()) != 1 {
		t.Fatal("an infinite p90 was reported as a number")
	}
}
