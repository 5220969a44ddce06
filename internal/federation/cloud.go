package federation

import (
	"time"
)

// Default cloud price points: the common on-demand FaaS rates ($0.20 per
// million invocations, ~$0.0000166667 per GB-second of execution), used
// when the Config leaves the price fields zero.
const (
	defaultCloudPricePerInvocation = 0.20 / 1e6
	defaultCloudPricePerGBSecond   = 1.0 / 60_000
)

// zeroDefault applies the cloud knobs' shared sentinel convention: a zero
// value selects def, a negative value means an explicit zero.
func zeroDefault[T ~int64 | ~float64](v, def T) T {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}

// cloudInstance is one execution slot of the cloud backend's per-function
// warm pool: busy until busyUntil, then idle-but-warm until warmUntil.
type cloudInstance struct {
	busyUntil time.Duration
	warmUntil time.Duration
}

// cloudPool models the warm-window behaviour of a FaaS cloud backend for
// one function. A request that cannot reuse an idle warm instance pays the
// function's cold-start latency first, so the cloud is no longer flattered
// as an always-warm free absorber; with a concurrency cap (the real FaaS
// throttle) instance creation is bounded too, and requests at the cap
// queue FIFO for the next instance to free up. Reuse is
// most-recently-used (the instance with the latest warm deadline), the
// policy real platforms use so that surplus instances age out.
//
// The pool is indexed so a landing costs O(log pool), not a scan. Each
// call that reads the pool first calls advance(at), which moves the
// instances free by at from the busy heap to the idle list and drops the
// expired ones. Two facts keep this bit-identical to scanning every
// instance:
//
//   - at never decreases across calls: the federation always passes
//     Engine.Now()+CloudRTT. An instance free or expired at one call is
//     therefore free or expired at every later one.
//   - warmUntil == busyUntil + CloudWarmWindow for every instance, so
//     instances with equal busyUntil are interchangeable, and which of
//     them a tie picks cannot change any result.
type cloudPool struct {
	busy []cloudInstance // min-heap on busyUntil
	idle []cloudInstance // ascending busyUntil: most recently freed last
}

// advance frees the instances whose busy horizon has passed by at and
// drops the idle ones whose warm window lapsed before at. Instances leave
// the heap in busyUntil order, and each busyUntil is at least the at of
// the call that set it, so appending keeps idle sorted.
func (p *cloudPool) advance(at time.Duration) {
	for len(p.busy) > 0 && p.busy[0].busyUntil <= at {
		p.idle = append(p.idle, p.busy[0])
		last := len(p.busy) - 1
		p.busy[0] = p.busy[last]
		p.busy = p.busy[:last]
		p.siftDown(0)
	}
	k := 0
	for k < len(p.idle) && p.idle[k].warmUntil < at {
		k++
	}
	p.idle = p.idle[k:]
}

// push adds a busy instance to the heap.
func (p *cloudPool) push(in cloudInstance) {
	p.busy = append(p.busy, in)
	for i := len(p.busy) - 1; i > 0; {
		parent := (i - 1) / 2
		if p.busy[parent].busyUntil <= p.busy[i].busyUntil {
			break
		}
		p.busy[parent], p.busy[i] = p.busy[i], p.busy[parent]
		i = parent
	}
}

// siftDown restores the heap order below i after busy[i] grew.
func (p *cloudPool) siftDown(i int) {
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(p.busy) && p.busy[c].busyUntil < p.busy[least].busyUntil {
				least = c
			}
		}
		if least == i {
			return
		}
		p.busy[i], p.busy[least] = p.busy[least], p.busy[i]
		i = least
	}
}

// hasWarm reports whether a request arriving at time at would find an
// idle warm instance (i.e. would skip the cold start).
func (p *cloudPool) hasWarm(at time.Duration) bool {
	p.advance(at)
	return len(p.idle) > 0
}

// acquire reserves an instance for a request arriving at time at that will
// execute for run. It returns the queueing delay the request pays at the
// concurrency cap (zero when uncapped or a slot is free) and the
// cold-start delay (zero when an idle warm instance is reused, coldStart
// when a fresh instance must be provisioned). With maxConc > 0 the pool
// never exceeds that many instances: a request finding all of them busy
// waits FIFO for the earliest-free instance and starts on it warm — the
// handoff is instance reuse, not a fresh provision. The chosen instance
// is busy until wait + cold + run after arrival and then stays warm for
// warmWindow.
func (p *cloudPool) acquire(at, run, coldStart, warmWindow time.Duration, maxConc int) (wait, cold time.Duration) {
	p.advance(at)
	if n := len(p.idle); n > 0 {
		// Most-recently-used reuse: the tail has the latest warm deadline.
		p.idle = p.idle[:n-1]
	} else if maxConc > 0 && len(p.busy) >= maxConc {
		// At the cap: queue for the instance that frees first. Arrivals
		// are processed in time order, so bumping its busy horizon keeps
		// the hand-offs FIFO.
		soonest := &p.busy[0]
		wait = soonest.busyUntil - at
		soonest.busyUntil += run
		soonest.warmUntil = soonest.busyUntil + warmWindow
		p.siftDown(0)
		return wait, 0
	} else {
		cold = coldStart
	}
	busyUntil := at + cold + run
	p.push(cloudInstance{busyUntil: busyUntil, warmUntil: busyUntil + warmWindow})
	return 0, cold
}

// predictWait returns the queueing delay a request arriving at time at
// would pay before starting execution: zero when uncapped, when an idle
// warm instance exists, or when the pool may still grow; otherwise the
// time until the earliest-free instance hands over.
func (p *cloudPool) predictWait(at time.Duration, maxConc int) time.Duration {
	if maxConc <= 0 {
		return 0
	}
	p.advance(at)
	if len(p.idle) > 0 || len(p.busy) < maxConc {
		return 0
	}
	return p.busy[0].busyUntil - at
}
