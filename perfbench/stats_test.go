package main

import (
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	for _, c := range []struct {
		q, want float64
	}{
		{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}, {0, 1},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 7 || xs[9] != 6 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestQuantileSmallSamples(t *testing.T) {
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
	if got := quantile([]float64{42}, 0.9); got != 42 {
		t.Errorf("single sample: got %v, want 42", got)
	}
	// With an even count the median is the lower middle sample: a value
	// that was measured, not an average of two.
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 1..4 = %v, want 2", got)
	}
}

func TestUnitsAndRatio(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != 1.5 {
		t.Errorf("ms = %v", got)
	}
	if got := us(2 * time.Millisecond); got != 2000 {
		t.Errorf("us = %v", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio by zero = %v, want 0", got)
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio = %v", got)
	}
}
