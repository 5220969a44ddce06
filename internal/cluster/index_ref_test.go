package cluster

import (
	"slices"
	"sort"
	"testing"

	"lass/internal/xrand"
)

// refIndex is the container index as it was before the ID-ordered
// slices: maps keyed by container ID, walked and then sorted on every
// read. It shadows a Cluster through the same operations and is kept
// frozen as the reference the slice index must match.
type refIndex struct {
	byFunc map[string]map[ContainerID]*Container
	byNode map[*Node]map[ContainerID]*Container
}

func newRefIndex(cl *Cluster) *refIndex {
	r := &refIndex{
		byFunc: make(map[string]map[ContainerID]*Container),
		byNode: make(map[*Node]map[ContainerID]*Container),
	}
	for _, n := range cl.Nodes() {
		r.byNode[n] = make(map[ContainerID]*Container)
	}
	return r
}

func (r *refIndex) placed(c *Container) {
	r.byNode[c.Node()][c.ID] = c
	fn := r.byFunc[c.Function]
	if fn == nil {
		fn = make(map[ContainerID]*Container)
		r.byFunc[c.Function] = fn
	}
	fn[c.ID] = c
}

func (r *refIndex) terminated(c *Container, n *Node) {
	delete(r.byNode[n], c.ID)
	delete(r.byFunc[c.Function], c.ID)
}

func (r *refIndex) containersOf(function string) []*Container {
	var out []*Container
	for _, c := range r.byFunc[function] {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (r *refIndex) nodeContainers(n *Node) []*Container {
	var out []*Container
	for _, c := range r.byNode[n] {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (r *refIndex) cpuOf(function string) int64 {
	var t int64
	for _, c := range r.byFunc[function] {
		t += c.CPUCurrent
	}
	return t
}

func (r *refIndex) functions() []string {
	var out []string
	for f, m := range r.byFunc {
		if len(m) > 0 {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

func (r *refIndex) liveContainers() int {
	t := 0
	for _, m := range r.byNode {
		t += len(m)
	}
	return t
}

// TestIndexMatchesReference runs seeded random sequences of placements,
// deflated placements, state changes, resizes and terminations against
// the ID-ordered slice index and the frozen map+sort reference, and
// checks after every operation that every read of the index agrees.
func TestIndexMatchesReference(t *testing.T) {
	fns := []string{"a", "b", "c", "d"}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		cl, err := New(Config{Nodes: 3, CPUPerNode: 4000, MemPerNode: 8192, Policy: PlacementPolicy(seed % 3)})
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefIndex(cl)
		var live []*Container
		pick := func() *Container { return live[rng.Intn(len(live))] }
		for step := 0; step < 3000; step++ {
			fn := fns[rng.Intn(len(fns))]
			switch op := rng.Intn(8); {
			case op == 0 || op == 1:
				if c, err := cl.Place(fn, int64(100+rng.Intn(1200)), int64(64+rng.Intn(512))); err == nil {
					ref.placed(c)
					live = append(live, c)
				}
			case op == 2:
				std := int64(200 + rng.Intn(1200))
				if c, err := cl.PlaceDeflated(fn, std, std*int64(50+rng.Intn(50))/100, int64(64+rng.Intn(512))); err == nil {
					ref.placed(c)
					live = append(live, c)
				}
			case op == 3 && len(live) > 0:
				_ = cl.MarkRunning(pick()) // fails unless Starting
			case op == 4 && len(live) > 0:
				_ = cl.MarkDraining(pick()) // fails unless Running
			case op == 5 && len(live) > 0:
				_ = cl.Revive(pick()) // fails unless Draining
			case op == 6 && len(live) > 0:
				c := pick()
				_ = cl.Resize(c, c.CPUStandard*int64(60+rng.Intn(41))/100) // inflation may not fit
			case op == 7 && len(live) > 0:
				i := rng.Intn(len(live))
				c := live[i]
				n := c.Node()
				if err := cl.Terminate(c); err != nil {
					t.Fatal(err)
				}
				ref.terminated(c, n)
				live = slices.Delete(live, i, i+1)
			}
			for _, fn := range append(fns, "unknown") {
				if got, want := cl.ContainersOf(fn), ref.containersOf(fn); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: ContainersOf(%s) = %v, reference %v", seed, step, fn, ids(got), ids(want))
				}
				if got, want := cl.CPUOf(fn), ref.cpuOf(fn); got != want {
					t.Fatalf("seed %d step %d: CPUOf(%s) = %d, reference %d", seed, step, fn, got, want)
				}
				var each []*Container
				cl.EachContainerOf(fn, func(c *Container) { each = append(each, c) })
				if want := ref.containersOf(fn); !slices.Equal(each, want) {
					t.Fatalf("seed %d step %d: EachContainerOf(%s) visits %v, reference %v", seed, step, fn, ids(each), ids(want))
				}
			}
			for _, n := range cl.Nodes() {
				if got, want := n.Containers(), ref.nodeContainers(n); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: node %d Containers = %v, reference %v", seed, step, n.ID, ids(got), ids(want))
				}
			}
			if got, want := cl.Functions(), ref.functions(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Functions = %v, reference %v", seed, step, got, want)
			}
			if got, want := cl.LiveContainers(), ref.liveContainers(); got != want {
				t.Fatalf("seed %d step %d: LiveContainers = %d, reference %d", seed, step, got, want)
			}
		}
	}
}

func ids(cs []*Container) []ContainerID {
	out := make([]ContainerID, len(cs))
	for i, c := range cs {
		out[i] = c.ID
	}
	return out
}

// TestIndexReadsAndTerminateAllocateNothing guards the control epoch's
// allocation-free reads and reclaim: AppendContainersOf into a dst with
// room, and Terminate, allocate no heap objects.
func TestIndexReadsAndTerminateAllocateNothing(t *testing.T) {
	const runs = 100
	cl, err := New(Config{Nodes: 2, CPUPerNode: 1_000_000, MemPerNode: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	var cs []*Container
	for i := 0; i <= runs; i++ { // AllocsPerRun makes one warm-up call
		for _, fn := range []string{"a", "b"} {
			c, err := cl.Place(fn, 100, 64)
			if err != nil {
				t.Fatal(err)
			}
			cs = append(cs, c)
		}
	}
	dst := make([]*Container, 0, len(cs))
	if n := testing.AllocsPerRun(runs, func() {
		dst = cl.AppendContainersOf("a", dst[:0])
	}); n != 0 {
		t.Errorf("AppendContainersOf into a sized dst allocates %v times per call", n)
	}
	// Terminate from the middle of the indexes, so each call shifts the
	// later entries down.
	i := len(cs) / 2
	if n := testing.AllocsPerRun(runs, func() {
		if err := cl.Terminate(cs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("Terminate allocates %v times per call", n)
	}
}
