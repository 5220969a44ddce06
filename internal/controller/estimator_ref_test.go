package controller

import (
	"math"
	"testing"
	"time"

	"lass/internal/xrand"
)

// refDualWindow is the estimator as it was before the running sums: Rate
// walks the ring with sumCompleted on every call. It is kept frozen as
// the reference the O(1) DualWindow must match bit for bit.
type refDualWindow struct {
	cfg     DualWindowConfig
	buckets []float64
	head    int64
	headPos int
	started bool
	first   int64
}

func newRefDualWindow(cfg DualWindowConfig) *refDualWindow {
	n := int(cfg.Long / time.Second)
	if cfg.Long%time.Second != 0 {
		n++
	}
	return &refDualWindow{cfg: cfg, buckets: make([]float64, n)}
}

func (d *refDualWindow) advance(now time.Duration) {
	sec := secOf(now)
	if !d.started {
		d.started = true
		d.first = sec
		d.head = sec
		return
	}
	for d.head < sec {
		d.head++
		d.headPos = (d.headPos + 1) % len(d.buckets)
		d.buckets[d.headPos] = 0
	}
}

func (d *refDualWindow) RecordArrival(now time.Duration) {
	d.advance(now)
	d.buckets[d.headPos]++
}

func (d *refDualWindow) sumCompleted(n int) float64 {
	if n > len(d.buckets)-1 {
		n = len(d.buckets) - 1
	}
	var s float64
	pos := d.headPos - 1
	if pos < 0 {
		pos = len(d.buckets) - 1
	}
	for i := 0; i < n; i++ {
		s += d.buckets[pos]
		pos--
		if pos < 0 {
			pos = len(d.buckets) - 1
		}
	}
	return s
}

func (d *refDualWindow) Rate(now time.Duration) (float64, bool) {
	d.advance(now)
	completed := d.head - d.first
	if completed < 1 {
		return d.buckets[d.headPos], false
	}
	shortSecs := int(d.cfg.Short / time.Second)
	longSecs := int(d.cfg.Long / time.Second)
	effShort := shortSecs
	if int64(effShort) > completed {
		effShort = int(completed)
	}
	effLong := longSecs
	if int64(effLong) > completed {
		effLong = int(completed)
	}
	shortRate := d.sumCompleted(effShort) / float64(effShort)
	longRate := d.sumCompleted(effLong) / float64(effLong)
	if longRate > 0 && shortRate >= d.cfg.BurstFactor*longRate {
		return shortRate, true
	}
	return longRate, false
}

// TestDualWindowMatchesReference drives the running-sum estimator and the
// frozen ring-walking reference with the same seeded arrival streams and
// compares every Rate answer bit for bit, burst flag included. The
// streams start at sub-second offsets and mix steady Poisson phases,
// bursts, silences longer than the long window, and Rate reads landing
// both on and between whole seconds; the configurations include
// non-whole-second windows and a ring small enough to wrap constantly.
func TestDualWindowMatchesReference(t *testing.T) {
	configs := []DualWindowConfig{
		DefaultDualWindow(),
		{Short: 10500 * time.Millisecond, Long: 2*time.Minute + 500*time.Millisecond, BurstFactor: 2},
		{Short: 1500 * time.Millisecond, Long: 3 * time.Second, BurstFactor: 1.5},
		{Short: time.Second, Long: 2 * time.Second, BurstFactor: 3},
		{Short: 7 * time.Second, Long: 7500 * time.Millisecond, BurstFactor: 2},
	}
	for ci, cfg := range configs {
		for seed := uint64(1); seed <= 6; seed++ {
			got, err := NewDualWindow(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := newRefDualWindow(cfg)
			rng := xrand.New(seed*101 + uint64(ci))
			now := time.Duration(rng.Int63n(int64(time.Second))) // sub-second start
			if seed%3 == 0 {
				now = 0 // reads on whole seconds
			}
			if seed%2 == 0 {
				// Open with a Rate read so the first observation is not
				// an arrival.
				compareRate(t, ci, seed, got, want, now)
			}
			// Rate reads every 5 s, as the controller's epochs do, interleaved
			// in time order with the arrivals.
			nextRead := now + 5*time.Second
			arrive := func(at time.Duration) {
				for ; nextRead <= at; nextRead += 5 * time.Second {
					compareRate(t, ci, seed, got, want, nextRead)
				}
				got.RecordArrival(at)
				want.RecordArrival(at)
			}
			for step := 0; step < 6000; step++ {
				switch r := rng.Float64(); {
				case r < 0.002:
					// Silence longer than the long window.
					now += cfg.Long + time.Duration(rng.Int63n(int64(3*cfg.Long)))
				case r < 0.02:
					// Burst: a run of arrivals a few milliseconds apart.
					for i, n := 0, 20+rng.Intn(200); i < n; i++ {
						now += time.Duration(rng.Int63n(int64(5 * time.Millisecond)))
						arrive(now)
					}
				default:
					// Steady phase, a few arrivals per second on average.
					now += time.Duration(rng.Exp(3) * float64(time.Second))
				}
				arrive(now)
				if step%37 == 0 {
					compareRate(t, ci, seed, got, want, now)
				}
				if t.Failed() {
					return
				}
			}
		}
	}
}

func compareRate(t *testing.T, ci int, seed uint64, got *DualWindow, want *refDualWindow, now time.Duration) {
	t.Helper()
	gr, gb := got.Rate(now)
	wr, wb := want.Rate(now)
	if math.Float64bits(gr) != math.Float64bits(wr) || gb != wb {
		t.Errorf("config %d seed %d at %v: Rate = (%v, %v), reference (%v, %v)", ci, seed, now, gr, gb, wr, wb)
	}
}

// TestDualWindowLongWindowSpan pins the long window's current span. With
// a whole-second Long the ring holds Long/1s buckets, one of which is the
// second still filling, so the long sum covers Long/1s - 1 completed
// seconds but is divided by Long/1s: a steady 1 req/s reads 119/120 under
// the default 2-minute window. Sizing the ring one bucket larger would fix
// it and turn this expectation into 1; a non-whole-second Long already
// gets the extra bucket from rounding up.
func TestDualWindowLongWindowSpan(t *testing.T) {
	for _, tc := range []struct {
		long time.Duration
		want float64
	}{
		{2 * time.Minute, 119.0 / 120},
		{2*time.Minute + 500*time.Millisecond, 1},
	} {
		d, err := NewDualWindow(DualWindowConfig{Short: 10 * time.Second, Long: tc.long, BurstFactor: 2})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 300; s++ {
			d.RecordArrival(time.Duration(s)*time.Second + 500*time.Millisecond)
		}
		rate, burst := d.Rate(300 * time.Second)
		if rate != tc.want || burst {
			t.Errorf("Long=%v: steady 1 req/s reads (%v, %v), want (%v, false)", tc.long, rate, burst, tc.want)
		}
	}
}
