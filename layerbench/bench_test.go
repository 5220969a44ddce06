package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"lass/internal/metrics"
	"lass/internal/sim"
)

// heldOutSeed is kept out of the runs used to tune the benchmark's
// workloads and bounds.
const heldOutSeed = 20261017

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.generate(7), w.generate(7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", w.name)
		}
		if bytes.Equal(a, w.generate(8)) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w.name)
		}
	}
}

// TestHeldOutSeed runs every workload on a seed not used for tuning, on
// both schedulers, the calendar run traced, and requires the correctness
// gate, the non-vacuity check, no failed request and one digest for all
// of it.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			text := w.generate(heldOutSeed)
			heap, err := runOnce(w, text, sim.SchedulerHeap, nil, nil)
			if err != nil {
				t.Fatalf("heap run: %v", err)
			}
			tr := newTracer()
			cal, err := runOnce(w, text, sim.SchedulerCalendar, tr, nil)
			if err != nil {
				t.Fatalf("traced calendar run: %v", err)
			}
			if heap.digest != cal.digest {
				t.Fatalf("heap digest %x, traced calendar digest %x", heap.digest[:8], cal.digest[:8])
			}
			// The workloads are chosen so that no request fails: the drain
			// tail resolves every request and nothing is rejected.
			if heap.tot.failed != 0 {
				t.Errorf("%d of %d requests failed", heap.tot.failed, heap.tot.offered)
			}
			if tr.placerCalls != heap.tot.offered {
				t.Errorf("placer saw %d calls for %d requests", tr.placerCalls, heap.tot.offered)
			}
			// The chaos replay re-asks the sampled queries and must get the
			// run's answers; only fed-overload has a fault view.
			in, out, err := replayChaos(cal.sc, tr)
			if err != nil {
				t.Fatal(err)
			}
			if hasFaults := cal.cfg.Faults != nil; hasFaults != (tr.chaosQueries > 0) || hasFaults != (in+out > 0) {
				t.Errorf("fault view set %v, but %d chaos queries replayed in %v", hasFaults, tr.chaosQueries, in+out)
			}
			// The gate must notice a request that goes missing.
			heap.res.Sites[0].ServedLocal++
			if err := checkResult(heap.res, &heap.tot); err == nil {
				t.Error("checkResult accepted a site that placed one request more than arrived")
			}
		})
	}
}

func TestMergedQuantileMatchesSortedUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var all []float64
	var rs []*metrics.Reservoir
	for i := 0; i < 5; i++ {
		r := metrics.NewReservoir()
		for k := 0; k < 100+rng.Intn(900); k++ {
			v := rng.ExpFloat64() / float64(i+1)
			r.Add(v)
			all = append(all, v)
		}
		rs = append(rs, r)
	}
	rs = append(rs, metrics.NewReservoir()) // an empty site
	sort.Float64s(all)
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		want := all[int(math.Ceil(q*float64(len(all))))-1]
		if got := mergedQuantile(rs, q); got != want {
			t.Errorf("q=%v: got %v, want %v", q, got, want)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metrics the benchmark
// reports and to the reason each workload was chosen.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the benchmark %s (%s)", i, got, m.name, m.unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := spec.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the benchmark %s (%s)", i, got, m.name, m.unit)
		}
	}
}
