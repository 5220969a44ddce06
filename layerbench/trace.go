package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"lass/internal/federation"
)

// Sampling periods for the per-call layers. Every call is counted and
// every placer call is timed; one placer call in placerSpanEvery leaves a
// span. A chaos query takes about as long as the clock reads that would
// time it, so none is timed in the run: one in chaosSampleEvery is
// recorded with its arguments, and replayChaos times those afterwards.
const (
	placerSpanEvery  = 1024
	chaosSampleEvery = 16
)

// span is one timed interval the benchmark recorded around a call into a
// layer. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// The three kinds of fault-view query.
const (
	queryCoordinator uint8 = iota
	querySite
	queryLink
)

// chaosQuery is one sampled fault-view query: its arguments and answer,
// and whether a placer call was open around it, so that its cost is
// already part of the placer's busy time.
type chaosQuery struct {
	at       time.Duration
	from, to int32 // from is the site of a SiteDown query
	kind     uint8
	down     bool
	inPlacer bool
}

// tracer records spans at the benchmark's own seams into the program and
// aggregates the per-call layers into counters. It is used from the
// engine's single goroutine only. Spans stay in memory until write.
type tracer struct {
	origin time.Time
	spans  []span

	// runSpan is the open span the per-call layers hang under.
	runSpan int

	placerCalls    uint64
	placerNonLocal uint64
	placerBusy     time.Duration
	inPlacer       bool

	chaosQueries                    uint64
	chaosDown                       uint64
	chaosQueriesIn, chaosQueriesOut uint64 // inside and outside placer calls
	chaosSample                     []chaosQuery
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// open starts a span and returns its id; close ends it.
func (t *tracer) open(name string, parent int, at time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.ns(at)})
	return id
}

func (t *tracer) close(id int, at time.Time) { t.spans[id-1].End = t.ns(at) }

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, fn func()) {
	id := t.open(name, parent, time.Now())
	fn()
	t.close(id, time.Now())
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPlacer wraps the configured placer: it counts and times every
// decision and leaves a span for one call in placerSpanEvery.
type tracedPlacer struct {
	inner federation.Placer
	t     *tracer
}

func (p tracedPlacer) Name() string { return p.inner.Name() }

func (p tracedPlacer) Place(ctx *federation.PlacementContext) federation.Decision {
	t := p.t
	t.placerCalls++
	start := time.Now()
	t.inPlacer = true
	d := p.inner.Place(ctx)
	t.inPlacer = false
	end := time.Now()
	t.placerBusy += end.Sub(start)
	if t.placerCalls%placerSpanEvery == 0 {
		t.close(t.open("placer.place", t.runSpan, start), end)
	}
	if d.Kind != federation.ServeLocal {
		t.placerNonLocal++
	}
	return d
}

// tracedFaults wraps the configured fault view: every query is counted and
// one in chaosSampleEvery is recorded.
type tracedFaults struct {
	inner federation.FaultView
	t     *tracer
}

func (t *tracer) query(q chaosQuery) bool {
	t.chaosQueries++
	if q.down {
		t.chaosDown++
	}
	if t.inPlacer {
		t.chaosQueriesIn++
	} else {
		t.chaosQueriesOut++
	}
	if t.chaosQueries%chaosSampleEvery == 0 {
		q.inPlacer = t.inPlacer
		t.chaosSample = append(t.chaosSample, q)
	}
	return q.down
}

func (f tracedFaults) CoordinatorDown(at time.Duration) bool {
	return f.t.query(chaosQuery{kind: queryCoordinator, at: at, down: f.inner.CoordinatorDown(at)})
}

func (f tracedFaults) SiteDown(site int, at time.Duration) bool {
	return f.t.query(chaosQuery{kind: querySite, at: at, from: int32(site), down: f.inner.SiteDown(site, at)})
}

func (f tracedFaults) LinkDown(from, to int, at time.Duration) bool {
	return f.t.query(chaosQuery{kind: queryLink, at: at, from: int32(from), to: int32(to), down: f.inner.LinkDown(from, to, at)})
}
