package main

import (
	"fmt"
	"runtime"
	"time"

	"lass/internal/allocation"
	"lass/internal/controller"
	"lass/internal/federation"
	"lass/internal/functions"
	"lass/internal/metrics"
	"lass/internal/queuing"
	"lass/internal/scenario"
	"lass/internal/workload"
	"lass/internal/xrand"
)

// The replays time one layer at a time: each feeds a layer's public API
// the inputs the traced run recorded (or, for the estimator, the same
// arrival process), so a layer's cost can be read without instrumenting
// the program. Building the inputs is never inside the timed region.

// replayQueuing sizes every function at every recorded epoch from its
// LambdaHat series, warm-starting each call from the previous answer as
// the controller does. It returns the number of sizing calls and the time
// they took.
func replayQueuing(sc *scenario.Scenario, res *federation.Result) (uint64, time.Duration, error) {
	type input struct {
		mu      float64
		lambdas []float64
	}
	var inputs []input
	for i, site := range sc.Fleet {
		for _, fn := range site.Functions {
			spec, err := functions.ByName(fn.Spec)
			if err != nil {
				return 0, 0, err
			}
			fr := res.Sites[i].Core.Functions[fn.Spec]
			in := input{mu: spec.ServiceRate(), lambdas: make([]float64, len(fr.LambdaHat.Points))}
			for k, p := range fr.LambdaHat.Points {
				in.lambdas[k] = p.V
			}
			inputs = append(inputs, in)
		}
	}
	slo := controller.Default().SLO
	var calls uint64
	start := time.Now()
	for _, in := range inputs {
		hint := 0
		for _, l := range in.lambdas {
			c, err := queuing.MinimalContainersFrom(l, in.mu, slo, hint)
			if err != nil {
				return 0, 0, fmt.Errorf("queuing replay: %w", err)
			}
			hint = c
		}
		calls += uint64(len(in.lambdas))
	}
	return calls, time.Since(start), nil
}

// replayAllocation runs the global allocator over every alloc epoch of the
// run, with each site's demand taken from its functions' Desired series
// times the spec CPU, under the run's hierarchy and reclaim setting. Runs
// without global allocation replay nothing.
func replayAllocation(sc *scenario.Scenario, cfg federation.Config, res *federation.Result) (uint64, time.Duration, error) {
	if !cfg.GlobalFairShare || res.AllocEpochs == 0 {
		return 0, 0, nil
	}
	epoch := sc.AllocEpoch
	var epochs [][]allocation.SiteDemand
	for t := time.Duration(0); t < sc.Duration; t += epoch {
		sites := make([]allocation.SiteDemand, len(sc.Fleet))
		for i, site := range sc.Fleet {
			sd := allocation.SiteDemand{
				Site:        res.Sites[i].Name,
				Weight:      1,
				CapacityCPU: int64(site.Nodes) * site.CPUPerNode,
			}
			for _, fn := range site.Functions {
				spec, err := functions.ByName(fn.Spec)
				if err != nil {
					return 0, 0, err
				}
				desired := res.Sites[i].Core.Functions[fn.Spec].Desired.ValueAt(t)
				sd.Functions = append(sd.Functions, allocation.FunctionDemand{
					Name:       fn.Spec,
					Weight:     spec.Weight,
					UserWeight: 1,
					DesiredCPU: int64(desired) * spec.CPUMillis,
				})
			}
			sites[i] = sd
		}
		epochs = append(epochs, sites)
	}
	a := allocation.NewAllocator()
	if err := a.SetHierarchy(cfg.Hierarchy, cfg.Reclaim); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for _, sites := range epochs {
		if _, err := a.Allocate(sites, true); err != nil {
			return 0, 0, fmt.Errorf("allocation replay: %w", err)
		}
	}
	return uint64(len(epochs)), time.Since(start), nil
}

// replayEstimator feeds each function's arrival process (its schedule
// through workload.NewArrivals) into a fresh DualWindow and reads the
// rate every controller epoch. Arrival generation is not timed.
func replayEstimator(sc *scenario.Scenario) (time.Duration, error) {
	interval := controller.Default().EvalInterval
	var busy time.Duration
	var arrivals []time.Duration
	for i, site := range sc.Fleet {
		for j, fn := range site.Functions {
			sched, err := workload.NewSteps(fn.Steps)
			if err != nil {
				return 0, err
			}
			gen := workload.NewArrivals(sched, xrand.New(sc.Seed^uint64(i<<8|j)))
			arrivals = arrivals[:0]
			for t, ok := gen.Next(0); ok && t < sc.Duration; t, ok = gen.Next(t) {
				arrivals = append(arrivals, t)
			}
			dw, err := controller.NewDualWindow(controller.DefaultDualWindow())
			if err != nil {
				return 0, err
			}
			start := time.Now()
			tick := interval
			for _, a := range arrivals {
				for a >= tick {
					dw.Rate(tick)
					tick += interval
				}
				dw.RecordArrival(a)
			}
			for ; tick <= sc.Duration; tick += interval {
				dw.Rate(tick)
			}
			busy += time.Since(start)
		}
	}
	return busy, nil
}

// replayChaos times the fault-view queries the traced run sampled, in
// tight loops through a fresh fault view built from the scenario: once
// for the queries made inside placer calls and once for the rest. Each
// loop's time is scaled to all the queries of its group. Every replayed
// answer must match the run's.
func replayChaos(sc *scenario.Scenario, t *tracer) (in, out time.Duration, err error) {
	var inside, outside []chaosQuery
	for _, q := range t.chaosSample {
		if q.inPlacer {
			inside = append(inside, q)
		} else {
			outside = append(outside, q)
		}
	}
	timeGroup := func(qs []chaosQuery, all uint64) (time.Duration, error) {
		if len(qs) == 0 {
			return 0, nil
		}
		cfg, err := sc.Build(-1)
		if err != nil {
			return 0, err
		}
		faults := cfg.Faults
		wrong := -1
		start := time.Now()
		for i, q := range qs {
			var down bool
			switch q.kind {
			case queryCoordinator:
				down = faults.CoordinatorDown(q.at)
			case querySite:
				down = faults.SiteDown(int(q.from), q.at)
			default:
				down = faults.LinkDown(int(q.from), int(q.to), q.at)
			}
			if down != q.down {
				wrong = i
			}
		}
		busy := time.Since(start)
		if wrong >= 0 {
			return 0, fmt.Errorf("chaos replay: query %+v answered %v in the run", qs[wrong], qs[wrong].down)
		}
		return time.Duration(float64(busy) * float64(all) / float64(len(qs))), nil
	}
	if in, err = timeGroup(inside, t.chaosQueriesIn); err != nil {
		return 0, 0, err
	}
	if out, err = timeGroup(outside, t.chaosQueriesOut); err != nil {
		return 0, 0, err
	}
	return in, out, nil
}

// metricCounts counts what the run recorded into the metrics package:
// reservoir samples and series points.
type metricCounts struct {
	reservoirs []int
	series     []int
}

func (m metricCounts) samples() uint64 {
	var n uint64
	for _, c := range m.reservoirs {
		n += uint64(c)
	}
	for _, c := range m.series {
		n += uint64(c)
	}
	return n
}

func countMetrics(res *federation.Result) metricCounts {
	var m metricCounts
	for _, s := range res.Sites {
		m.reservoirs = append(m.reservoirs, s.Responses.Count())
		m.series = append(m.series, len(s.Core.UtilizationTS.Points))
		for _, fr := range s.Core.Functions {
			m.reservoirs = append(m.reservoirs, fr.Waits.Count(), fr.Responses.Count())
			m.series = append(m.series, len(fr.Containers.Points), len(fr.CPU.Points),
				len(fr.LambdaHat.Points), len(fr.Desired.Points))
		}
	}
	return m
}

// replayMetrics records the run's sample counts into fresh reservoirs and
// series and returns the time taken and the heap the structures retain.
// Call it with the run's Result already unreachable, so the two do not
// share the heap.
func replayMetrics(m metricCounts) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rs := make([]*metrics.Reservoir, len(m.reservoirs))
	ss := make([]*metrics.Series, len(m.series))
	start := time.Now()
	for i, n := range m.reservoirs {
		r := metrics.NewReservoir()
		for k := 0; k < n; k++ {
			r.Add(float64(k))
		}
		rs[i] = r
	}
	for i, n := range m.series {
		s := metrics.NewSeries("replay")
		for k := 0; k < n; k++ {
			s.Record(time.Duration(k), float64(k))
		}
		ss[i] = s
	}
	busy := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rs)
	runtime.KeepAlive(ss)
	var retained uint64
	if after.HeapAlloc > before.HeapAlloc {
		retained = after.HeapAlloc - before.HeapAlloc
	}
	return busy, retained
}
