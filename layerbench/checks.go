package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"lass/internal/federation"
	"lass/internal/metrics"
)

// totals are a run's per-site counters summed over the federation. They
// are read once per run from its Result and shared by the correctness
// gate, the non-vacuity checks and the per-layer counters.
type totals struct {
	offered    uint64 // ingress arrivals over all sites
	violations uint64 // completed requests over the response SLO
	// failed counts requests that never completed: admission rejects plus
	// requests still queued, in service or in flight when the run ended.
	// Result.Unresolved already includes the rejects.
	failed       uint64
	p50ms, p99ms float64

	local, peer, peerServed, cloud, rejected, cloudQueued uint64
	reclaimed, preempted                                  uint64
	completed, requeued, timedOut                         uint64
	steps, overloads, creations, terminations             uint64
	deflations, inflations                                uint64
}

func (t *totals) missFrac() float64 {
	return float64(t.violations+t.failed) / float64(t.offered)
}

func (t *totals) failedFrac() float64 { return float64(t.failed) / float64(t.offered) }

func sumResult(res *federation.Result) totals {
	var t totals
	rs := make([]*metrics.Reservoir, 0, len(res.Sites))
	for _, s := range res.Sites {
		for _, fr := range s.Core.Functions {
			t.offered += fr.Arrivals
			t.completed += fr.Completed
			t.requeued += fr.Requeued
			t.timedOut += fr.TimedOut
		}
		t.violations += s.SLO.Violations()
		t.failed += s.Unresolved
		t.local += s.ServedLocal
		t.peer += s.OffloadedPeer
		t.peerServed += s.PeerServed
		t.cloud += s.OffloadedCloud
		t.rejected += s.Rejected
		t.cloudQueued += s.CloudQueued
		t.reclaimed += s.Reclaimed
		t.preempted += s.Preempted
		ops := s.Core.ControllerOps
		t.steps += ops.Steps
		t.overloads += ops.Overloads
		t.creations += ops.Creations
		t.terminations += ops.Terminations
		t.deflations += ops.Deflations
		t.inflations += ops.Inflations
		rs = append(rs, s.Responses)
	}
	t.p50ms = mergedQuantile(rs, 0.50) * 1000
	t.p99ms = mergedQuantile(rs, 0.99) * 1000
	return t
}

// mergedQuantile returns the nearest-rank q-quantile of the union of the
// reservoirs' samples (seconds), found by bisecting on the value: the
// smallest sample value v with at least ceil(q*n) samples <= v.
func mergedQuantile(rs []*metrics.Reservoir, q float64) float64 {
	var n uint64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range rs {
		if r.Count() == 0 {
			continue
		}
		n += uint64(r.Count())
		lo = math.Min(lo, r.Quantile(0))
		hi = math.Max(hi, r.Quantile(1))
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank == 0 {
		rank = 1
	}
	atMost := func(v float64) uint64 {
		var c uint64
		for _, r := range rs {
			c += uint64(math.Round(r.FractionBelow(v) * float64(r.Count())))
		}
		return c
	}
	// Response times are non-negative, so float64 bit patterns order like
	// the values: bisect on the bits for an exact sample value.
	a, b := math.Float64bits(lo), math.Float64bits(hi)
	for a < b {
		mid := a + (b-a)/2
		if atMost(math.Float64frombits(mid)) >= rank {
			b = mid
		} else {
			a = mid + 1
		}
	}
	return math.Float64frombits(a)
}

// checkResult is the correctness gate: request conservation per site and
// across the federation, and reclaim accounting. Every identity here holds
// exactly in a correct run.
func checkResult(res *federation.Result, t *totals) error {
	for _, s := range res.Sites {
		var ingress, diverted, enqueuedOwn, finished uint64
		for _, fr := range s.Core.Functions {
			ingress += fr.Arrivals
			diverted += fr.Offloaded
			enqueuedOwn += fr.Arrivals - fr.Offloaded
			finished += fr.Completed + fr.TimedOut
		}
		// Every arrival passes the placement hook exactly once.
		if placed := s.ServedLocal + s.OffloadedPeer + s.OffloadedCloud + s.Rejected; placed != ingress {
			return fmt.Errorf("site %s: %d arrivals but %d placement outcomes", s.Name, ingress, placed)
		}
		if d := s.OffloadedPeer + s.OffloadedCloud + s.Rejected; d != diverted {
			return fmt.Errorf("site %s: queues diverted %d requests, federation counted %d", s.Name, diverted, d)
		}
		if enqueuedOwn != s.ServedLocal {
			return fmt.Errorf("site %s: queues kept %d requests, federation served %d locally", s.Name, enqueuedOwn, s.ServedLocal)
		}
		// A site's queues finish at most what they were given: their own
		// ingress plus the work they absorbed from peers.
		if finished > s.ServedLocal+s.PeerServed {
			return fmt.Errorf("site %s: %d requests finished of %d enqueued", s.Name, finished, s.ServedLocal+s.PeerServed)
		}
		// Each ingress request is either observed once at its origin or
		// unresolved at the end; rejects are never observed.
		if s.SLO.Total()+s.Unresolved != ingress {
			return fmt.Errorf("site %s: %d observed + %d unresolved != %d arrivals", s.Name, s.SLO.Total(), s.Unresolved, ingress)
		}
		if uint64(s.Responses.Count()) != s.SLO.Total() {
			return fmt.Errorf("site %s: %d response samples for %d observed requests", s.Name, s.Responses.Count(), s.SLO.Total())
		}
		if s.Rejected > s.Unresolved {
			return fmt.Errorf("site %s: %d rejects exceed %d unresolved", s.Name, s.Rejected, s.Unresolved)
		}
	}
	// Peer transfers still on the wire at the end have left but not landed.
	if t.peerServed > t.peer {
		return fmt.Errorf("federation: %d peer arrivals for %d peer offloads", t.peerServed, t.peer)
	}
	if res.CloudServed != t.cloud {
		return fmt.Errorf("federation: cloud served %d, sites offloaded %d", res.CloudServed, t.cloud)
	}
	if res.Rejected != t.rejected {
		return fmt.Errorf("federation: %d rejects, sites counted %d", res.Rejected, t.rejected)
	}
	if res.Reclaimed != t.reclaimed || res.Preempted != t.preempted {
		return fmt.Errorf("federation: reclaim totals %d/%d disagree with sites %d/%d", res.Reclaimed, res.Preempted, t.reclaimed, t.preempted)
	}
	// A landed reclaim commit books both sides at once and a commit still
	// in flight at the end books neither, so the totals agree exactly.
	if t.reclaimed != t.preempted {
		return fmt.Errorf("federation: reclaimed %d mcpu but preempted %d", t.reclaimed, t.preempted)
	}
	return nil
}

// digest hashes every simulated statistic of a run, series and reservoir
// samples included. Two
// runs of the same inputs must agree on it whatever the host, the event
// scheduler or the tracing wrappers.
func digest(res *federation.Result, events uint64) [32]byte {
	h := sha256.New()
	var buf []byte
	u := func(vs ...uint64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	f := func(vs ...float64) {
		for _, v := range vs {
			u(math.Float64bits(v))
		}
	}
	str := func(s string) { u(uint64(len(s))); buf = append(buf, s...) }
	flush := func() { h.Write(buf); buf = buf[:0] }
	series := func(s *metrics.Series) {
		str(s.Name)
		u(uint64(len(s.Points)))
		for _, p := range s.Points {
			u(uint64(p.T))
			f(p.V)
			if len(buf) > 1<<16 {
				flush()
			}
		}
	}
	// Quantile sorts a reservoir; stepping it over every order statistic
	// hashes all of its samples.
	reservoir := func(r *metrics.Reservoir) {
		n := r.Count()
		u(uint64(n))
		f(r.Sum())
		for k := 0; k < n; k++ {
			f(r.Quantile(float64(k) / float64(max(n-1, 1))))
			if len(buf) > 1<<16 {
				flush()
			}
		}
	}
	str(res.Placer)
	u(events, uint64(res.Duration), res.CloudServed, res.CloudColdStarts, res.CloudTimedOut,
		res.CloudQueued, res.Rejected, res.AllocEpochs, uint64(res.Coordinator), res.MissedAllocEpochs,
		res.GrantLeaseExpirations, uint64(res.MeanGrantDelay), res.PartitionedEpochs, res.GrantsLost,
		res.Reclaimed, res.Preempted)
	f(res.CloudCost, res.MeanStrandedCPU, res.MeanAllocDriftCPU)
	for _, s := range res.Sites {
		str(s.Name)
		u(s.ServedLocal, s.OffloadedPeer, s.OffloadedCloud, s.PeerServed, s.Rejected,
			s.CloudColdStarts, s.CloudTimedOut, s.CloudQueued, s.GrantLeaseExpirations,
			s.PartitionedEpochs, s.GrantsLost, s.Reclaimed, s.Preempted, s.Unresolved,
			s.SLO.Total(), s.SLO.Violations())
		f(s.CloudCost)
		reservoir(s.Responses)
		c := s.Core
		ops := c.ControllerOps
		u(uint64(c.Duration), uint64(c.LargestFreeEnd), ops.Creations, ops.Terminations, ops.Deflations,
			ops.Inflations, ops.Revivals, ops.Drains, ops.Overloads, ops.Steps, ops.GrantLeaseExpiries)
		f(c.Utilization)
		series(c.UtilizationTS)
		names := make([]string, 0, len(c.Functions))
		for name := range c.Functions {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fr := c.Functions[name]
			str(name)
			u(fr.Arrivals, fr.Completed, fr.Requeued, fr.TimedOut, fr.Offloaded, fr.Rejected,
				fr.SLO.Total(), fr.SLO.Violations())
			reservoir(fr.Waits)
			reservoir(fr.Responses)
			series(fr.Containers)
			series(fr.CPU)
			series(fr.LambdaHat)
			series(fr.Desired)
		}
		flush()
	}
	flush()
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func metroDayNonVacuous(r *runStats) error {
	if r.res.AllocEpochs != 0 || r.tot.peer+r.tot.cloud != 0 {
		return fmt.Errorf("metro-day must bypass allocation and placement: %d alloc epochs, %d offloads",
			r.res.AllocEpochs, r.tot.peer+r.tot.cloud)
	}
	return nil
}

func fedOverloadNonVacuous(r *runStats) error {
	res := r.res
	for _, c := range []struct {
		what string
		n    uint64
	}{
		{"reclaimed mcpu", res.Reclaimed},
		{"grants lost", res.GrantsLost},
		{"missed alloc epochs", res.MissedAllocEpochs},
		{"peer offloads", r.tot.peer},
		{"cloud offloads", r.tot.cloud},
	} {
		if c.n == 0 {
			return fmt.Errorf("fed-overload exercised no %s", c.what)
		}
	}
	return nil
}

func fleetControlNonVacuous(r *runStats) error {
	if r.res.AllocEpochs == 0 || r.tot.overloads == 0 || r.tot.deflations == 0 {
		return fmt.Errorf("fleet-control needs alloc epochs, overloads and deflations: got %d, %d, %d",
			r.res.AllocEpochs, r.tot.overloads, r.tot.deflations)
	}
	return nil
}
