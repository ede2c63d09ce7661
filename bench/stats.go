package main

import (
	"math"
	"sort"
)

// series is a preallocated sample buffer: the timed loops append into it
// without allocating, so the benchmark's own bookkeeping stays out of
// allocs_per_op. Samples beyond the capacity are dropped.
type series struct{ v []float64 }

func newSeries(capacity int) *series { return &series{v: make([]float64, 0, capacity)} }

func (s *series) capacity() int { return cap(s.v) }

func (s *series) add(x float64) {
	if len(s.v) == cap(s.v) {
		return
	}
	s.v = append(s.v, x)
}

func (s *series) reset() { s.v = s.v[:0] }

func (s *series) n() int { return len(s.v) }

// sorted returns an ascending copy of the stored samples.
func (s *series) sorted() []float64 {
	out := append([]float64(nil), s.v...)
	sort.Float64s(out)
	return out
}

// quantile reads the q-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func (s *series) quantile(q float64) float64 { return quantile(s.sorted(), q) }

// sliced cuts the samples, in the order they were taken, into k
// consecutive slices, reads the q-quantile of each and returns the
// at-quantile of the k readings: with at below a half, the reading of the
// quieter slices. Fewer than k*20 samples are read as one slice.
func (s *series) sliced(k int, q, at float64) float64 {
	if len(s.v) < k*20 {
		return s.quantile(q)
	}
	readings := make([]float64, k)
	for i := range readings {
		part := append([]float64(nil), s.v[i*len(s.v)/k:(i+1)*len(s.v)/k]...)
		sort.Float64s(part)
		readings[i] = quantile(part, q)
	}
	sort.Float64s(readings)
	return quantile(readings, at)
}

func (s *series) mean() float64 {
	if len(s.v) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s.v {
		sum += x
	}
	return sum / float64(len(s.v))
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) does (exclusive
// method), which is what the benchmark contract measures spread with.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
