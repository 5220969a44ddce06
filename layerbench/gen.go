package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
)

// rng is the benchmark's own splitmix64 stream. Inputs depend only on the
// seed and this file, never on the program's generators, so a change to
// the program cannot change the inputs it is measured on.
type rng struct{ s uint64 }

// newRNG forks an independent stream per (seed, label), so adding a draw
// to one generator leaves every other generator's inputs unchanged.
func newRNG(seed uint64, label string) *rng {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &rng{s: seed ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) uniform(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

// poisson draws a Poisson count by Knuth's product method, in chunks of
// mean 30 so exp(-mean) never underflows.
func (r *rng) poisson(mean float64) int {
	n := 0
	for mean > 0 {
		m := math.Min(mean, 30)
		mean -= m
		l, p := math.Exp(-m), r.float()
		for p > l {
			n++
			p *= r.float()
		}
	}
	return n
}

// workloadDef is one benchmark workload: the scenario text its generator
// writes from a seed, and the non-vacuity check that proves the run
// exercised the layers the workload exists to measure.
type workloadDef struct {
	name string
	// why is the one-line reason the workload is in the benchmark; it is
	// also the "why" BENCHMARK.json records.
	why        string
	generate   func(seed uint64) []byte
	nonVacuous func(r *runStats) error
}

var workloads = []workloadDef{
	{
		name:       "metro-day",
		why:        "100 sites replay a steady diurnal day: the per-site data path, estimator, warm M/M/c and metrics recording do the work",
		generate:   genMetroDay,
		nonVacuous: metroDayNonVacuous,
	},
	{
		name:       "fed-overload",
		why:        "starved/borrower/donor metros under overload and faults: placer, chaos, reclaim, lost grants and cloud offload dominate",
		generate:   genFedOverload,
		nonVacuous: fedOverloadNonVacuous,
	},
	{
		name:       "fleet-control",
		why:        "96 sites x 7 bursty low-rate functions: controller Step churn and global allocation of changing demand dominate",
		generate:   genFleetControl,
		nonVacuous: fleetControlNonVacuous,
	},
}

func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// fmtRate writes a rate with the shortest representation that parses back
// to the same float64, so the program sees exactly the generated schedule.
func fmtRate(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// drainMinutes is the quiet tail every workload ends with: arrivals stop,
// the run goes on, and every request in flight completes, so no operation
// of a correct run is left unresolved when it ends.
const drainMinutes = 1

// writePerMinute writes a per-minute count vector as a flow list of
// rate steps (req/s), one step per minute, the Azure trace shape, then
// a zero-rate step that starts the drain tail.
func writePerMinute(b *strings.Builder, indent string, counts []int) {
	b.WriteString(indent)
	b.WriteString("workload: [")
	for m, c := range counts {
		fmt.Fprintf(b, "{start: %dm, rate: %s}, ", m, fmtRate(float64(c)/60))
	}
	fmt.Fprintf(b, "{start: %dm, rate: 0}]\n", len(counts))
}

func writeSite(b *strings.Builder, name string, nodes int, cpu, mem int64) {
	fmt.Fprintf(b, "  - name: %s\n    nodes: %d\n    cpu-per-node: %d\n    mem-per-node: %d\n    functions:\n",
		name, nodes, cpu, mem)
}

// metroDay* are the MetroDay shape: sites replaying the Azure-derived
// steady archetype, a day-long sinusoid of amplitude 0.4 in one common
// phase with Poisson counts per minute (internal/azure, Steady).
const (
	metroDaySites     = 100
	metroDayMinutes   = 24 * 60
	metroDayMean      = 15.0 // requests per minute per site
	metroDayAmplitude = 0.4
)

// genMetroDay writes the MetroDay shape: one-node sites each replaying its
// own seeded steady diurnal trace for a day, never placer, local
// allocation, no faults.
func genMetroDay(seed uint64) []byte {
	r := newRNG(seed, "metro-day")
	var b strings.Builder
	fmt.Fprintf(&b, "name: metro-day\nseed: %d\nduration: %dm\nresponse-slo: 250ms\nplacer: never\nfleet:\n",
		r.next()>>33, metroDayMinutes+drainMinutes)
	counts := make([]int, metroDayMinutes)
	for i := 0; i < metroDaySites; i++ {
		for m := range counts {
			phase := 2 * math.Pi * float64(m) / metroDayMinutes
			counts[m] = r.poisson(metroDayMean * (1 + metroDayAmplitude*math.Sin(phase)))
		}
		writeSite(&b, fmt.Sprintf("site-%03d", i), 1, 4000, 8192)
		b.WriteString("      - spec: squeezenet\n        prewarm: 1\n")
		writePerMinute(&b, "        ", counts)
	}
	return []byte(b.String())
}

const (
	fedRegions         = 2
	fedMetrosPerRegion = 3
	fedMinutes         = 3
)

// genFedOverload repeats the starved/borrower/donor metro of
// scenarios/hierarchical-reclaim.yaml across metros in two regions, with
// per-metro rates jittered around the committed values, under
// Gilbert-Elliott coordinator outages and a directed coordinator->site
// link fault that drops grants on the return leg. Admission control is
// off: with it, every seed rejected requests at cold cloud pools, and the
// benchmark's workloads are chosen so that no request fails. The excess
// of the starved sites goes to metro peers and the cloud instead.
func genFedOverload(seed uint64) []byte {
	r := newRNG(seed, "fed-overload")
	jitter := func(v float64) string { return fmtRate(math.Round(v*r.uniform(0.95, 1.05)*100) / 100) }
	rate := func(v float64) string {
		return fmt.Sprintf("[{rate: %s}, {start: %dm, rate: 0}]", jitter(v), fedMinutes)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "name: fed-overload\nseed: %d\nduration: %dm\nresponse-slo: 250ms\n", r.next()>>33, fedMinutes+drainMinutes)
	b.WriteString("placer: metro-affine\nglobal-fairshare: true\nalloc-epoch: 5s\ngrant-lease: 10s\n")
	b.WriteString("hierarchy:\n  reclaim: true\n  reclaim-latency: 4ms\n")
	b.WriteString("  rtt-classes: {intra-metro: 2ms, intra-region: 10ms, cross-region: 40ms}\n  groups:\n")
	for g := 0; g < fedRegions; g++ {
		fmt.Fprintf(&b, "    - name: region-%d\n      groups:\n", g)
		for m := 0; m < fedMetrosPerRegion; m++ {
			k := g*fedMetrosPerRegion + m
			fmt.Fprintf(&b, "        - name: metro-%d\n          sites: [m%d-tiny, m%d-big, m%d-calm]\n", k, k, k, k)
		}
	}
	b.WriteString("fleet:\n")
	for k := 0; k < fedRegions*fedMetrosPerRegion; k++ {
		writeSite(&b, fmt.Sprintf("m%d-tiny", k), 1, 1000, 512)
		fmt.Fprintf(&b, "      - {spec: squeezenet, prewarm: 1, workload: %s}\n", rate(120))
		writeSite(&b, fmt.Sprintf("m%d-big", k), 3, 4000, 16384)
		fmt.Fprintf(&b, "      - {spec: squeezenet, prewarm: 1, workload: %s}\n", rate(0.2))
		fmt.Fprintf(&b, "      - {spec: binaryalert, prewarm: 1, workload: %s}\n", rate(500))
		writeSite(&b, fmt.Sprintf("m%d-calm", k), 3, 4000, 16384)
		fmt.Fprintf(&b, "      - {spec: geofence, prewarm: 1, workload: %s}\n", rate(1))
	}
	// The coordinator sits at site 0 (fixed election). Its outages are
	// short next to the 10s grant lease and it starts dark, so every seed
	// misses epochs while leases rarely collapse; outages of lease length
	// made the outcome hinge on where they fell. The link fault cuts only
	// the coordinator->site direction, so demand uploads still reach the
	// seat while the computed grants are lost in transit. Its target, site
	// 3, is the tiny site of the second metro, the one that needs grants.
	fmt.Fprintf(&b, "chaos:\n  seed: %d\n  faults:\n", r.next()>>33)
	b.WriteString("    - {kind: coordinator, mean-up: 15s, mean-down: 2s, start-down: true}\n")
	b.WriteString("    - {kind: link, from: 0, to: 3, mean-up: 20s, mean-down: 8s}\n")
	return []byte(b.String())
}

const (
	fleetRegions         = 4
	fleetMetrosPerRegion = 4
	fleetSitesPerMetro   = 6
	fleetMinutes         = 60
	fleetMean            = 3.0 // long-run requests per minute per function
)

// The bursty archetype of internal/azure, from the Azure Functions trace
// study: a two-state modulated Poisson process, busy at 3x the mean and
// quiet at 0.1x, with geometric dwell times of about 10 busy and 22 quiet
// minutes, so a trace starts busy with the stationary busy share 0.3125.
const (
	burstyBusyX      = 3.0
	burstyQuietX     = 0.1
	burstyBusyDwell  = 10.0 // mean minutes
	burstyQuietDwell = 22.0 // mean minutes
	burstyBusyShare  = 0.3125
)

// fleetFunctions are the seven catalog functions every fleet-control site
// deploys. At one container each they need 6 vCPU, exactly a site's
// capacity, so any busy spell that asks for a second container overloads
// the site and sends its controller down the fair-share and deflation path.
var fleetFunctions = []string{
	"micro-benchmark", "mobilenet-v2", "shufflenet-v2", "squeezenet",
	"binaryalert", "geofence", "image-resizer",
}

// bursty fills counts with one per-minute trace of the bursty archetype
// around mean requests per minute.
func (r *rng) bursty(counts []int, mean float64) {
	busy := r.float() < burstyBusyShare
	for i := range counts {
		if busy {
			counts[i] = r.poisson(burstyBusyX * mean)
			busy = r.float() >= 1/burstyBusyDwell
		} else {
			counts[i] = r.poisson(burstyQuietX * mean)
			busy = r.float() < 1/burstyQuietDwell
		}
	}
}

// genFleetControl writes a 4-region x 4-metro x 6-site tree where every
// site runs all seven catalog functions, each on its own seeded bursty
// trace of a few requests per minute, under global fair share with the
// hierarchy and the model-driven placer, for one simulated hour.
func genFleetControl(seed uint64) []byte {
	r := newRNG(seed, "fleet-control")
	var b strings.Builder
	fmt.Fprintf(&b, "name: fleet-control\nseed: %d\nduration: %dm\nresponse-slo: 250ms\n", r.next()>>33, fleetMinutes+drainMinutes)
	b.WriteString("placer: model-driven\nglobal-fairshare: true\nalloc-epoch: 5s\ngrant-lease: 10s\n")
	b.WriteString("hierarchy:\n  rtt-classes: {intra-metro: 2ms, intra-region: 10ms, cross-region: 40ms}\n  groups:\n")
	site := func(g, m, s int) string { return fmt.Sprintf("r%dm%ds%d", g, m, s) }
	for g := 0; g < fleetRegions; g++ {
		fmt.Fprintf(&b, "    - name: region-%d\n      groups:\n", g)
		for m := 0; m < fleetMetrosPerRegion; m++ {
			names := make([]string, fleetSitesPerMetro)
			for s := range names {
				names[s] = site(g, m, s)
			}
			fmt.Fprintf(&b, "        - name: r%dm%d\n          sites: [%s]\n", g, m, strings.Join(names, ", "))
		}
	}
	b.WriteString("fleet:\n")
	counts := make([]int, fleetMinutes)
	for g := 0; g < fleetRegions; g++ {
		for m := 0; m < fleetMetrosPerRegion; m++ {
			for s := 0; s < fleetSitesPerMetro; s++ {
				writeSite(&b, site(g, m, s), 1, 6000, 8192)
				for _, fn := range fleetFunctions {
					r.bursty(counts, fleetMean)
					fmt.Fprintf(&b, "      - spec: %s\n        prewarm: 1\n", fn)
					writePerMinute(&b, "        ", counts)
				}
			}
		}
	}
	return []byte(b.String())
}
