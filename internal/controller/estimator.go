// Package controller implements the LaSS control plane (paper §3-§5): the
// arrival-rate estimators, the epoch-driven model-based container
// allocation algorithm, weighted fair-share adjustment under overload, and
// the termination/deflation resource-reclamation policies.
package controller

import (
	"fmt"
	"time"
)

// DualWindowConfig configures the burst-detecting rate estimator of §5:
// "monitoring two sliding windows every 5 seconds: a 2-minute long window
// and a 10-second short window ... if the arrival rate in the short window
// is twice as high as the arrival rate in the long window, LaSS switches to
// calculating the arrival rate based on the short window."
type DualWindowConfig struct {
	Short       time.Duration // default 10s
	Long        time.Duration // default 2min
	BurstFactor float64       // default 2.0
}

// DefaultDualWindow returns the paper's window configuration.
func DefaultDualWindow() DualWindowConfig {
	return DualWindowConfig{Short: 10 * time.Second, Long: 2 * time.Minute, BurstFactor: 2}
}

// DualWindow estimates a function's arrival rate from per-second arrival
// counts kept in a ring buffer covering the long window.
//
// The short and long windows are kept as running sums over a fixed span of
// completed seconds: advance adds each second as it completes and
// subtracts the second that leaves the span, so Rate costs O(1) however
// long the window. Counts are integers held in float64, so the sums are
// exact in any order and equal the walk over the ring bit for bit. Seconds
// before the first observation hold no arrivals, so early in a run the
// sum over the full span equals the sum over the seconds observed so far;
// only the divisor shrinks (see Rate).
type DualWindow struct {
	cfg     DualWindowConfig
	buckets []float64
	head    int64 // absolute second index of buckets[headPos]
	headPos int
	started bool
	first   int64 // absolute second of the first recorded/observed instant

	shortSecs, longSecs int     // whole seconds in each window (the rate divisors)
	shortSpan, longSpan int     // completed seconds each running sum covers
	shortSum, longSum   float64 // arrivals in the last shortSpan/longSpan completed seconds
}

// NewDualWindow builds the estimator.
func NewDualWindow(cfg DualWindowConfig) (*DualWindow, error) {
	if cfg.Short <= 0 || cfg.Long <= 0 || cfg.Short >= cfg.Long {
		return nil, fmt.Errorf("controller: invalid windows short=%v long=%v", cfg.Short, cfg.Long)
	}
	if cfg.BurstFactor <= 1 {
		return nil, fmt.Errorf("controller: burst factor %v must exceed 1", cfg.BurstFactor)
	}
	n := int(cfg.Long / time.Second)
	if cfg.Long%time.Second != 0 {
		n++
	}
	d := &DualWindow{
		cfg:       cfg,
		buckets:   make([]float64, n),
		shortSecs: int(cfg.Short / time.Second),
		longSecs:  int(cfg.Long / time.Second),
	}
	// The ring holds the filling second plus n-1 completed ones, so a sum
	// spans at most n-1 seconds. With a whole-second Long that is one
	// second short of the long-window divisor (see
	// TestDualWindowLongWindowSpan).
	d.shortSpan = min(d.shortSecs, n-1)
	d.longSpan = min(d.longSecs, n-1)
	return d, nil
}

func secOf(t time.Duration) int64 { return int64(t / time.Second) }

// advance rolls the ring forward to the bucket containing now, zeroing
// skipped seconds and moving the running sums along with it.
func (d *DualWindow) advance(now time.Duration) {
	sec := secOf(now)
	if !d.started {
		d.started = true
		d.first = sec
		d.head = sec
		return
	}
	n := len(d.buckets)
	for d.head < sec {
		// The filling second completes and enters both spans; the second
		// one span-length before it leaves. Both are still in the ring:
		// spans are at most n-1 and the slot about to be reused holds the
		// second n-1 back.
		done := d.buckets[d.headPos]
		d.shortSum += done - d.buckets[(d.headPos-d.shortSpan+n)%n]
		d.longSum += done - d.buckets[(d.headPos-d.longSpan+n)%n]
		d.head++
		d.headPos = (d.headPos + 1) % n
		d.buckets[d.headPos] = 0
	}
}

// RecordArrival counts one arrival at time now. Calls must be monotone in
// now (simulation order guarantees this).
func (d *DualWindow) RecordArrival(now time.Duration) {
	d.advance(now)
	d.buckets[d.headPos]++
}

// Rate returns the estimated arrival rate (req/s) at time now and whether
// the short window detected a burst. Only complete seconds count: a
// just-started bucket would dilute the rate by a partial interval. Early
// in a run, windows are scaled to the observed duration so the estimate is
// not diluted by empty history.
func (d *DualWindow) Rate(now time.Duration) (rate float64, burst bool) {
	d.advance(now)
	completed := d.head - d.first // whole seconds observed before the current one
	if completed < 1 {
		// Sub-second history: the current bucket is all there is.
		return d.buckets[d.headPos], false
	}
	effShort := min(int64(d.shortSecs), completed)
	effLong := min(int64(d.longSecs), completed)
	shortRate := d.shortSum / float64(effShort)
	longRate := d.longSum / float64(effLong)
	if longRate > 0 && shortRate >= d.cfg.BurstFactor*longRate {
		return shortRate, true
	}
	return longRate, false
}

// EWMA smooths a per-epoch rate series (§3.3: "subjected to an
// exponentially weighted moving average with a high weight given to the
// most recent epoch").
type EWMA struct {
	alpha   float64
	value   float64
	started bool
}

// NewEWMA builds a smoother; alpha in (0,1], higher = more weight on the
// newest observation.
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("controller: EWMA alpha %v out of (0,1]", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// Update folds in a new observation and returns the smoothed value.
func (e *EWMA) Update(v float64) float64 {
	if !e.started {
		e.started = true
		e.value = v
		return v
	}
	e.value = e.alpha*v + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current smoothed value.
func (e *EWMA) Value() float64 { return e.value }

// Reset clears the smoother to its initial state.
func (e *EWMA) Reset() { e.started = false; e.value = 0 }
