// Command layerbench is the repository's benchmark, the layer ledger. For
// one workload it generates the inputs from a seed as scenario text, loads
// them through scenario.Parse and Build, runs the federation and checks
// the outputs:
//
//	bash layerbench/run.sh --workload metro-day --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it repeats the untraced run for --seconds and reports the
// end-to-end metrics (medians over the repeats). With --trace 1 it runs the
// workload untraced on both event schedulers, then once traced, with the
// placer and the fault view wrapped and a CPU profile written beside the
// span file, and replays the recorded per-epoch inputs through the
// queuing, controller, allocation and metrics APIs to report the
// per-layer metrics. The last line of standard output is one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"lass/internal/federation"
	"lass/internal/scenario"
	"lass/internal/sim"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"events_per_s", "1/s"},
	{"alloc_bytes_per_event", "bytes"},
	{"allocs_per_event", "count"},
	{"live_heap_mb", "MiB"},
	{"slo_miss_frac", "ratio"},
	{"sim_response_p50_ms", "ms"},
	{"sim_response_p99_ms", "ms"},
}

// perLayer are the metrics of the traced pass, one group per layer.
// requests_failed_frac is here rather than end-to-end: every workload
// ends with a drain tail and none rejects at admission, so on a correct
// run it is 0, which no end-to-end metric may be.
var perLayer = []metricDef{
	{"requests_failed_frac", "ratio"},
	{"placer.calls", "count"}, {"placer.busy_s", "s"}, {"placer.ns_per_call", "ns"}, {"placer.nonlocal_frac", "ratio"},
	{"chaos.queries", "count"}, {"chaos.queries_per_request", "count"}, {"chaos.busy_s", "s"}, {"chaos.down_frac", "ratio"},
	{"allocation.epochs", "count"}, {"allocation.missed_epochs", "count"}, {"allocation.grants_lost", "count"},
	{"allocation.partitioned_epochs", "count"}, {"allocation.lease_expirations", "count"},
	{"allocation.reclaimed_mcpu", "mcpu"}, {"allocation.preempted_mcpu", "mcpu"},
	{"allocation.replay_busy_s", "s"}, {"allocation.replay_ns_per_epoch", "ns"},
	{"controller.steps", "count"}, {"controller.overload_frac", "ratio"}, {"controller.creations", "count"},
	{"controller.terminations", "count"}, {"controller.deflations", "count"}, {"controller.inflations", "count"},
	{"estimator.replay_busy_s", "s"},
	{"queuing.sizing_calls", "count"}, {"queuing.replay_busy_s", "s"}, {"queuing.replay_ns_per_call", "ns"},
	{"metrics.samples", "count"}, {"metrics.retained_bytes", "bytes"}, {"metrics.replay_busy_s", "s"},
	{"sim.events", "count"}, {"sim.events_per_request", "count"}, {"sim.calendar_wall_ratio", "ratio"},
	{"dispatch.completed", "count"}, {"dispatch.requeued", "count"}, {"dispatch.timed_out", "count"},
	{"run.residual_s", "s"},
	{"federation.served_local", "count"}, {"federation.offloaded_peer", "count"},
	{"federation.offloaded_cloud", "count"}, {"federation.rejected", "count"},
	{"federation.unresolved", "count"}, {"federation.cloud_queued", "count"},
	{"setup.parse_s", "s"}, {"setup.build_s", "s"}, {"setup.federation_new_s", "s"},
	{"run.traced_wall_s", "s"}, {"trace.overhead_frac", "ratio"},
}

// A --trace 0 run sets the workload up at least minSetups times, and keeps
// setting it up until setupBudget is spent or it has maxSetups samples, so
// setup_s is a steady median even where one set-up takes a millisecond.
const (
	minSetups   = 5
	maxSetups   = 2000
	setupBudget = 3 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 20, "how long to measure")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, 1: traced per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "trace"), "directory for spans and the CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "layerbench:", err)
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "layerbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	text := w.generate(o.seed)
	var rep *report
	if o.trace == 0 {
		rep, err = measure(w, text, o, stderr)
	} else {
		rep, err = traced(w, text, o, stderr)
	}
	if err != nil {
		// A run that errors or fails a check counts all of its requests as
		// failed.
		fmt.Fprintln(stderr, "layerbench:", err)
		rep.Correct = false
		rep.Attempted = max(rep.Attempted, 1)
		rep.Failed = rep.Attempted
	}
	if perr := rep.print(stdout); perr != nil {
		fmt.Fprintln(stderr, "layerbench:", perr)
		return 1
	}
	if err != nil {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

func (r *report) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("layerbench: undeclared metric " + name)
}

// count adds a run's requests to the totals; run may be nil.
func (r *report) count(run *runStats) {
	if run != nil {
		r.Attempted += run.tot.offered
		r.Failed += run.tot.failed
	}
}

// print writes a readable table, then the JSON result as the last line.
// It fails, printing nothing, if a metric is NaN or infinite.
func (r *report) print(w io.Writer) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// runStats is one complete run: set-up timings, the measured Run and the
// outputs it left.
type runStats struct {
	parse, build, newFed, wall time.Duration
	events                     uint64
	mallocs, allocBytes        uint64
	liveHeap                   uint64
	sc                         *scenario.Scenario
	cfg                        federation.Config
	res                        *federation.Result
	tot                        totals
	digest                     [32]byte
}

func (r *runStats) setup() time.Duration { return r.parse + r.build + r.newFed }

// setUp loads the scenario text and assembles the federation, timing each
// step. The tracer, when set, wraps the placer and the fault view.
func setUp(text []byte, kind sim.SchedulerKind, tr *tracer) (*runStats, *federation.Federation, error) {
	r := &runStats{}
	t0 := time.Now()
	sc, err := scenario.Parse(text)
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	t1 := time.Now()
	cfg, err := sc.Build(-1)
	if err != nil {
		return nil, nil, fmt.Errorf("build: %w", err)
	}
	cfg.Scheduler = kind
	if tr != nil {
		cfg.Placer = tracedPlacer{inner: cfg.Placer, t: tr}
		if cfg.Faults != nil {
			cfg.Faults = tracedFaults{inner: cfg.Faults, t: tr}
		}
	}
	t2 := time.Now()
	fed, err := federation.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("federation.New: %w", err)
	}
	t3 := time.Now()
	r.parse, r.build, r.newFed = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	r.sc, r.cfg = sc, cfg
	return r, fed, nil
}

// runOnce sets up and runs the workload once, then checks its outputs.
// With a tracer the Run is wrapped in a span and profiled into profile.
func runOnce(w workloadDef, text []byte, kind sim.SchedulerKind, tr *tracer, profile io.Writer) (*runStats, error) {
	runtime.GC()
	r, fed, err := setUp(text, kind, tr)
	if err != nil {
		return nil, err
	}
	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if profile != nil {
		if err := pprof.StartCPUProfile(profile); err != nil {
			return nil, err
		}
	}
	var runSpan int
	start := time.Now()
	if tr != nil {
		runSpan = tr.open("federation.run", 0, start)
		tr.runSpan = runSpan
	}
	res, err := fed.Run(r.sc.Duration)
	end := time.Now()
	if tr != nil {
		tr.close(runSpan, end)
	}
	if profile != nil {
		pprof.StopCPUProfile()
	}
	r.wall = end.Sub(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	r.events = fed.Engine.Fired()
	r.mallocs, r.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	fed = nil
	runtime.GC()
	runtime.ReadMemStats(&live)
	r.liveHeap = live.HeapAlloc
	r.res = res
	r.tot = sumResult(res)
	r.digest = digest(res, r.events)
	if r.tot.offered == 0 {
		return r, errors.New("no requests offered")
	}
	if err := checkResult(res, &r.tot); err != nil {
		return r, err
	}
	if err := w.nonVacuous(r); err != nil {
		return r, err
	}
	return r, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func logRun(stderr io.Writer, label string, r *runStats) {
	fmt.Fprintf(stderr, "%s: setup %.3fs run %.3fs %d events %.0f ev/s digest %x\n",
		label, r.setup().Seconds(), r.wall.Seconds(), r.events,
		float64(r.events)/r.wall.Seconds(), r.digest[:6])
}

// measure is the --trace 0 pass: it repeats the untraced run until
// --seconds have passed (at least minRuns times), checks that every repeat
// produced the same simulated digest, and reports the medians.
func measure(w workloadDef, text []byte, o options, stderr io.Writer) (*report, error) {
	const minRuns = 3
	rep := newReport()
	budget := time.Duration(o.seconds) * time.Second
	began := time.Now()
	var setups, walls, rates, bytesPerEv, allocsPerEv, heaps []float64
	var first *runStats
	for i := 0; i < minRuns || time.Since(began) < budget; i++ {
		r, err := runOnce(w, text, sim.SchedulerHeap, nil, nil)
		rep.count(r)
		if err != nil {
			return rep, err
		}
		logRun(stderr, fmt.Sprintf("%s run %d", w.name, i), r)
		if first == nil {
			first = r
		} else if r.digest != first.digest {
			return rep, fmt.Errorf("run %d digest %x differs from run 0 digest %x", i, r.digest[:8], first.digest[:8])
		}
		r.res = nil // keep only the summary, so runs do not share the heap
		setups = append(setups, r.setup().Seconds())
		walls = append(walls, r.wall.Seconds())
		rates = append(rates, float64(r.events)/r.wall.Seconds())
		bytesPerEv = append(bytesPerEv, float64(r.allocBytes)/float64(r.events))
		allocsPerEv = append(allocsPerEv, float64(r.mallocs)/float64(r.events))
		heaps = append(heaps, float64(r.liveHeap)/(1<<20))
	}
	// Set-up is cheap next to a run, so it is repeated on its own until
	// there are enough samples for a steady median.
	var setupTime time.Duration
	for len(setups) < minSetups || (setupTime < setupBudget && len(setups) < maxSetups) {
		runtime.GC()
		r, _, err := setUp(text, sim.SchedulerHeap, nil)
		if err != nil {
			return rep, err
		}
		setups = append(setups, r.setup().Seconds())
		setupTime += r.setup()
	}
	s := &first.tot
	for name, v := range map[string]float64{
		"setup_s":               median(setups),
		"wall_s":                median(walls),
		"events_per_s":          median(rates),
		"alloc_bytes_per_event": median(bytesPerEv),
		"allocs_per_event":      median(allocsPerEv),
		"live_heap_mb":          median(heaps),
		"slo_miss_frac":         s.missFrac(),
		"sim_response_p50_ms":   s.p50ms,
		"sim_response_p99_ms":   s.p99ms,
	} {
		rep.set(endToEnd, name, v)
	}
	return rep, nil
}

// traced is the --trace 1 pass. It alternates untraced runs on the heap
// and calendar schedulers while --seconds allow (at least one each), then
// makes one traced heap run with a CPU profile, replays the layers, and
// writes the spans. Every run must reproduce the same simulated digest.
func traced(w workloadDef, text []byte, o options, stderr io.Writer) (*report, error) {
	rep := newReport()
	budget := time.Duration(o.seconds) * time.Second
	began := time.Now()
	var heapWalls, calWalls, parses, builds, news []float64
	var ref [32]byte
	var seen bool
	for i := 0; i == 0 || time.Since(began) < budget/2; i++ {
		for _, kind := range []sim.SchedulerKind{sim.SchedulerHeap, sim.SchedulerCalendar} {
			r, err := runOnce(w, text, kind, nil, nil)
			rep.count(r)
			if err != nil {
				return rep, err
			}
			logRun(stderr, fmt.Sprintf("%s %s run %d", w.name, kind, i), r)
			if !seen {
				ref, seen = r.digest, true
			} else if r.digest != ref {
				return rep, fmt.Errorf("%s run %d digest %x differs from heap run 0 digest %x", kind, i, r.digest[:8], ref[:8])
			}
			if kind == sim.SchedulerHeap {
				heapWalls = append(heapWalls, r.wall.Seconds())
				parses = append(parses, r.parse.Seconds())
				builds = append(builds, r.build.Seconds())
				news = append(news, r.newFed.Seconds())
			} else {
				calWalls = append(calWalls, r.wall.Seconds())
			}
		}
	}

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return rep, err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return rep, err
	}
	tr := newTracer()
	r, err := runOnce(w, text, sim.SchedulerHeap, tr, prof)
	if cerr := prof.Close(); err == nil && cerr != nil {
		err = cerr
	}
	rep.count(r)
	if err != nil {
		return rep, err
	}
	logRun(stderr, w.name+" traced", r)
	if r.digest != ref {
		return rep, fmt.Errorf("traced run digest %x differs from untraced %x", r.digest[:8], ref[:8])
	}

	var calls, epochs uint64
	var queuingBusy, allocBusy, estBusy, metricsBusy time.Duration
	tr.timed("replay.queuing", 0, func() { calls, queuingBusy, err = replayQueuing(r.sc, r.res) })
	if err != nil {
		return rep, err
	}
	tr.timed("replay.allocation", 0, func() { epochs, allocBusy, err = replayAllocation(r.sc, r.cfg, r.res) })
	if err != nil {
		return rep, err
	}
	tr.timed("replay.estimator", 0, func() { estBusy, err = replayEstimator(r.sc) })
	if err != nil {
		return rep, err
	}
	var chaosIn, chaosOut time.Duration
	tr.timed("replay.chaos", 0, func() { chaosIn, chaosOut, err = replayChaos(r.sc, tr) })
	if err != nil {
		return rep, err
	}
	tr.chaosSample = nil
	res := r.res
	counts := countMetrics(res)
	var retained uint64
	r.res = nil
	set := func(name string, v float64) { rep.set(perLayer, name, v) }
	setLayerCounters(set, res, &r.tot)
	res = nil
	tr.timed("replay.metrics", 0, func() { metricsBusy, retained = replayMetrics(counts) })
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return rep, err
	}

	perCall := func(busy time.Duration, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(busy.Nanoseconds()) / float64(n)
	}
	frac := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	untraced := median(heapWalls)
	set("placer.calls", float64(tr.placerCalls))
	set("placer.busy_s", tr.placerBusy.Seconds())
	set("placer.ns_per_call", perCall(tr.placerBusy, tr.placerCalls))
	set("placer.nonlocal_frac", frac(tr.placerNonLocal, tr.placerCalls))
	set("chaos.queries", float64(tr.chaosQueries))
	set("chaos.queries_per_request", frac(tr.chaosQueries, r.tot.offered))
	set("chaos.busy_s", (chaosIn + chaosOut).Seconds())
	set("chaos.down_frac", frac(tr.chaosDown, tr.chaosQueries))
	set("allocation.replay_busy_s", allocBusy.Seconds())
	set("allocation.replay_ns_per_epoch", perCall(allocBusy, epochs))
	set("estimator.replay_busy_s", estBusy.Seconds())
	set("queuing.sizing_calls", float64(calls))
	set("queuing.replay_busy_s", queuingBusy.Seconds())
	set("queuing.replay_ns_per_call", perCall(queuingBusy, calls))
	set("metrics.samples", float64(counts.samples()))
	set("metrics.retained_bytes", float64(retained))
	set("metrics.replay_busy_s", metricsBusy.Seconds())
	set("requests_failed_frac", r.tot.failedFrac())
	set("sim.events", float64(r.events))
	set("sim.events_per_request", frac(r.events, r.tot.offered))
	set("sim.calendar_wall_ratio", median(calWalls)/untraced)
	set("run.residual_s", (r.wall - tr.placerBusy - chaosOut).Seconds())
	set("setup.parse_s", median(parses))
	set("setup.build_s", median(builds))
	set("setup.federation_new_s", median(news))
	set("run.traced_wall_s", r.wall.Seconds())
	// The traced run is also profiled, so this includes the profiler's cost.
	set("trace.overhead_frac", r.wall.Seconds()/untraced-1)
	for _, d := range perLayer {
		if _, ok := rep.Metrics[d.name]; !ok {
			return rep, fmt.Errorf("per-layer metric %s not reported", d.name)
		}
	}
	fmt.Fprintf(stderr, "%s: spans and CPU profile in %s.{spans.jsonl,cpu.pprof}\n", w.name, base)
	return rep, nil
}

// setLayerCounters reports the per-layer counters read from the Result.
func setLayerCounters(set func(string, float64), res *federation.Result, t *totals) {
	overloadFrac := 0.0
	if t.steps > 0 {
		overloadFrac = float64(t.overloads) / float64(t.steps)
	}
	for _, kv := range []struct {
		name string
		v    uint64
	}{
		{"allocation.epochs", res.AllocEpochs},
		{"allocation.missed_epochs", res.MissedAllocEpochs},
		{"allocation.grants_lost", res.GrantsLost},
		{"allocation.partitioned_epochs", res.PartitionedEpochs},
		{"allocation.lease_expirations", res.GrantLeaseExpirations},
		{"allocation.reclaimed_mcpu", res.Reclaimed},
		{"allocation.preempted_mcpu", res.Preempted},
		{"controller.steps", t.steps},
		{"controller.creations", t.creations},
		{"controller.terminations", t.terminations},
		{"controller.deflations", t.deflations},
		{"controller.inflations", t.inflations},
		{"dispatch.completed", t.completed},
		{"dispatch.requeued", t.requeued},
		{"dispatch.timed_out", t.timedOut},
		{"federation.served_local", t.local},
		{"federation.offloaded_peer", t.peer},
		{"federation.offloaded_cloud", t.cloud},
		{"federation.rejected", t.rejected},
		{"federation.unresolved", t.failed},
		{"federation.cloud_queued", t.cloudQueued},
	} {
		set(kv.name, float64(kv.v))
	}
	set("controller.overload_frac", overloadFrac)
}
