package controller

import (
	"fmt"
	"sort"
	"time"

	"lass/internal/cluster"
	"lass/internal/fairshare"
	"lass/internal/functions"
	"lass/internal/queuing"
)

// ReclamationPolicy selects how resources are taken back from
// over-allocated functions during overload (§4.2).
type ReclamationPolicy int

const (
	// DefaultPolicy defers to the paper default (Deflation, see Default).
	// It is deliberately the zero value so a partially-specified Config
	// runs the documented defaults instead of silently selecting
	// Termination; opting into Termination requires naming it.
	DefaultPolicy ReclamationPolicy = iota
	// Termination shuts down whole containers to free capacity.
	Termination
	// Deflation shrinks containers' CPU in place, terminating only when
	// maximum deflation is still insufficient.
	Deflation
)

// String returns the policy name.
func (p ReclamationPolicy) String() string {
	switch p {
	case DefaultPolicy:
		return "default(deflation)"
	case Termination:
		return "termination"
	case Deflation:
		return "deflation"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Config holds the controller's tunables. Zero values are replaced by the
// paper's defaults (see Default).
type Config struct {
	// SLO is the default latency objective for registered functions:
	// §6.1 uses "95th of waiting time should be under 100 ms".
	SLO queuing.SLO
	// EvalInterval is how often the allocation step runs; §5 evaluates
	// the windows every 5 seconds.
	EvalInterval time.Duration
	// EWMAAlpha is the weight of the newest epoch in the rate EWMA.
	EWMAAlpha float64
	// Windows configures the dual sliding-window estimator.
	Windows DualWindowConfig
	// DeflationThreshold is τ, the maximum fraction of a container's CPU
	// that deflation may reclaim (§4.2 sets it "conservatively (e.g.,
	// τ = 30%)").
	DeflationThreshold float64
	// DeflationIncrement is the per-iteration deflation step as a
	// fraction of the standard size ("in small increments").
	DeflationIncrement float64
	// Policy selects the overload reclamation policy.
	Policy ReclamationPolicy
	// MinContainers keeps at least this many containers per function
	// even when the model wants fewer.
	MinContainers int
	// DrainTTL is how long an over-provisioned container stays in the
	// lazily-reclaimed Draining state before being terminated outright.
	DrainTTL time.Duration
	// UncappedFairShare disables the water-filling refinement that never
	// hands an overloaded function more than its model-computed desire
	// (see fairshare.AdjustCapped). The zero value is the paper default
	// (capped, §4.1), so partial Configs keep the documented behaviour;
	// uncapped shares are an explicit opt-in.
	UncappedFairShare bool
	// UseLearnedRates makes the model consume the online service-time
	// learner's μ estimates instead of the registered spec (§5's online
	// learning mode) once enough observations exist.
	UseLearnedRates bool
	// NoInflateOnSlack disables restoring deflated containers to their
	// standard size when resource pressure ends. The Fig 4 model
	// -validation experiment needs manually deflated containers to stay
	// deflated so the heterogeneous model's reaction can be measured.
	NoInflateOnSlack bool
	// NoBurstDetection ignores the short-window burst signal and always
	// uses the EWMA-smoothed long-window rate — the estimator ablation.
	NoBurstDetection bool
	// OfferedLoadDemand makes the ingress feed *offered* load — including
	// requests a federation placement layer sheds to peers or the cloud —
	// into this controller's arrival-rate estimator even under
	// per-site-local allocation. Without it the estimator sees only kept
	// arrivals, so a steadily-shedding origin's overload signal
	// oscillates: shed load vanishes from the arrival stream, headroom
	// recovers, shedding stops, and the overload returns. The federation
	// layer reads this knob at its offload hook (the global fair-share
	// allocator always accounts offered load, knob or not); standalone
	// single-cluster platforms have no shedding path, so they are
	// unaffected.
	OfferedLoadDemand bool
}

// Default returns the paper-faithful configuration.
func Default() Config {
	return Config{
		SLO:                queuing.SLO{Deadline: 100 * time.Millisecond, Percentile: 0.95, WaitingOnly: true},
		EvalInterval:       5 * time.Second,
		EWMAAlpha:          0.6,
		Windows:            DefaultDualWindow(),
		DeflationThreshold: 0.30,
		DeflationIncrement: 0.05,
		Policy:             Deflation,
		MinContainers:      0,
		DrainTTL:           60 * time.Second,
		UncappedFairShare:  false, // capped water-filling (§4.1)
	}
}

func (c *Config) fillDefaults() {
	d := Default()
	if c.SLO.Deadline == 0 {
		c.SLO = d.SLO
	}
	if c.EvalInterval == 0 {
		c.EvalInterval = d.EvalInterval
	}
	if c.EWMAAlpha == 0 {
		c.EWMAAlpha = d.EWMAAlpha
	}
	if c.Windows.Short == 0 {
		c.Windows = d.Windows
	}
	if c.DeflationThreshold == 0 {
		c.DeflationThreshold = d.DeflationThreshold
	}
	if c.DeflationIncrement == 0 {
		c.DeflationIncrement = d.DeflationIncrement
	}
	if c.DrainTTL == 0 {
		c.DrainTTL = d.DrainTTL
	}
	if c.Policy == DefaultPolicy {
		c.Policy = d.Policy
	}
}

// Hooks connect the controller to its host (the simulated platform or the
// real-time runtime). The controller mutates the cluster directly; hooks
// tell the host when containers become usable or disappear so the data
// path can attach/detach them.
type Hooks struct {
	// Now returns the current time.
	Now func() time.Duration
	// ScheduleColdStart arranges for ready() to run after the
	// container's cold-start delay.
	ScheduleColdStart func(c *cluster.Container, delay time.Duration, ready func())
	// OnReady fires when a container finished cold-starting (it is
	// already marked Running).
	OnReady func(c *cluster.Container)
	// OnRemove fires when a container is terminated; the host must
	// detach it from the data path (requeueing any in-flight request).
	OnRemove func(c *cluster.Container)
	// OnResize fires after a container's CPU allocation changed.
	OnResize func(c *cluster.Container)
}

func (h Hooks) validate() error {
	if h.Now == nil || h.ScheduleColdStart == nil || h.OnReady == nil || h.OnRemove == nil {
		return fmt.Errorf("controller: Now, ScheduleColdStart, OnReady and OnRemove hooks are required")
	}
	return nil
}

// Function is the controller's per-function state.
type Function struct {
	Spec   functions.Spec
	SLO    queuing.SLO
	Weight float64
	User   string // namespace for two-level hierarchical shares ("" = flat)

	estimator *DualWindow
	smoother  *EWMA
	learner   *functions.Learner
	predictor Predictor

	// LambdaHat is the rate estimate used by the most recent Step.
	LambdaHat float64
	// Desired is the model-computed container count c_new from the most
	// recent Step.
	Desired int
	// Burst reports whether the most recent estimate came from the
	// short window.
	Burst bool

	// sizeHint and hetHint warm-start the next epoch's container-count
	// scans from this epoch's answers (queuing.MinimalContainersFrom /
	// AdditionalHetContainersFrom). The sized result is identical for any
	// hint — only the number of candidates the scan touches changes — so
	// the hints never need invalidation, even across service-rate or
	// demand swings.
	sizeHint int
	hetHint  int
}

// Learner exposes the function's online service-time learner so the host
// can feed completions into it.
func (f *Function) Learner() *functions.Learner { return f.learner }

// Stats are the controller's cumulative action counters.
type Stats struct {
	Creations    uint64
	Terminations uint64
	Deflations   uint64
	Inflations   uint64
	Revivals     uint64
	Drains       uint64
	Overloads    uint64 // Steps that ran the fair-share path
	Steps        uint64
	// GrantLeaseExpiries counts grant leases that lapsed without renewal,
	// each dropping the controller back to local enforcement.
	GrantLeaseExpiries uint64
}

// Controller is the LaSS control plane for one edge cluster.
type Controller struct {
	cfg      Config
	cluster  *cluster.Cluster
	hooks    Hooks
	funcs    map[string]*Function
	fns      []*Function // registration order, for deterministic iteration
	users    map[string]float64
	drained  map[cluster.ContainerID]time.Duration // when marked draining
	stats    Stats
	headroom int64            // capacity minus model-desired CPU, from the last Step
	grants   map[string]int64 // externally-imposed CPU grants (nil = local allocation)
	// grantDeadline is when the current grant lease lapses (0 = no lease:
	// grants stay valid until explicitly replaced or cleared).
	grantDeadline time.Duration
	// liveScratch/drainScratch back liveContainers and drainingContainers.
	// They are separate because reconcileNormal holds a live slice while it
	// fetches the draining one; no caller holds two results of the SAME
	// helper across a second call to it.
	liveScratch  []*cluster.Container
	drainScratch []*cluster.Container
	// Per-epoch scratch: estimate, Demands, desiredContainers and
	// grantTargets return views of these buffers so a steady-state control
	// epoch performs no heap allocations. Each helper's result is valid
	// only until its next call on this controller.
	demandScratch []fairshare.Demand
	demandsOut    []FunctionDemand
	rateScratch   []float64
	targetScratch map[string]int64
	feasScratch   []fairshare.Demand
}

// New builds a controller for the cluster.
func New(cfg Config, cl *cluster.Cluster, hooks Hooks) (*Controller, error) {
	if cl == nil {
		return nil, fmt.Errorf("controller: nil cluster")
	}
	if err := hooks.validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	if cfg.DeflationThreshold < 0 || cfg.DeflationThreshold >= 1 {
		return nil, fmt.Errorf("controller: deflation threshold %v out of [0,1)", cfg.DeflationThreshold)
	}
	if cfg.DeflationIncrement <= 0 || cfg.DeflationIncrement > 1 {
		return nil, fmt.Errorf("controller: deflation increment %v out of (0,1]", cfg.DeflationIncrement)
	}
	return &Controller{
		cfg:           cfg,
		cluster:       cl,
		hooks:         hooks,
		funcs:         make(map[string]*Function),
		users:         make(map[string]float64),
		drained:       make(map[cluster.ContainerID]time.Duration),
		headroom:      cl.TotalCPU(), // optimistic until the first Step runs
		targetScratch: make(map[string]int64),
	}, nil
}

// Config returns the controller's effective configuration.
func (ctl *Controller) Config() Config { return ctl.cfg }

// Stats returns the cumulative action counters.
func (ctl *Controller) Stats() Stats { return ctl.stats }

// Headroom is the controller's capacity-headroom signal: cluster CPU
// (millicores) left over after the queuing model's desired allocations, as
// of the most recent Step. Negative values mean the last epoch ran
// overloaded (the fair-share path was taken). Before the first Step it is
// the full cluster capacity. The federation placement layer reads this to
// decide whether a site can absorb more load or should shed it.
func (ctl *Controller) Headroom() int64 { return ctl.headroom }

// Overloaded reports whether the most recent Step found aggregate demand
// exceeding cluster capacity.
func (ctl *Controller) Overloaded() bool { return ctl.headroom < 0 }

// RegisterUser sets a namespace weight for the two-level hierarchical
// share tree (§5). Functions registered with this user name share the
// user's cluster fraction.
func (ctl *Controller) RegisterUser(name string, weight float64) error {
	if name == "" || weight <= 0 {
		return fmt.Errorf("controller: invalid user %q weight %v", name, weight)
	}
	ctl.users[name] = weight
	return nil
}

// Register adds a function to the platform. weight is its fair-share
// weight ω_i; user optionally names a namespace (RegisterUser). A zero SLO
// uses the controller default.
func (ctl *Controller) Register(spec functions.Spec, user string, weight float64, slo queuing.SLO) (*Function, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if _, dup := ctl.funcs[spec.Name]; dup {
		return nil, fmt.Errorf("controller: function %q already registered", spec.Name)
	}
	if weight <= 0 {
		weight = spec.Weight
	}
	if slo.Deadline == 0 {
		slo = ctl.cfg.SLO
	}
	if user != "" {
		if _, ok := ctl.users[user]; !ok {
			return nil, fmt.Errorf("controller: user %q not registered", user)
		}
	}
	est, err := NewDualWindow(ctl.cfg.Windows)
	if err != nil {
		return nil, err
	}
	sm, err := NewEWMA(ctl.cfg.EWMAAlpha)
	if err != nil {
		return nil, err
	}
	learner, err := functions.NewLearner(0.05)
	if err != nil {
		return nil, err
	}
	f := &Function{
		Spec:      spec,
		SLO:       slo,
		Weight:    weight,
		User:      user,
		estimator: est,
		smoother:  sm,
		learner:   learner,
	}
	ctl.funcs[spec.Name] = f
	ctl.fns = append(ctl.fns, f)
	return f, nil
}

// Function returns the registered function state.
func (ctl *Controller) Function(name string) (*Function, bool) {
	f, ok := ctl.funcs[name]
	return f, ok
}

// Functions returns registered function names in registration order.
func (ctl *Controller) Functions() []string {
	out := make([]string, len(ctl.fns))
	for i, f := range ctl.fns {
		out[i] = f.Spec.Name
	}
	return out
}

// RecordArrival feeds the estimator; the data path calls it for every
// incoming request.
func (ctl *Controller) RecordArrival(function string) {
	if f, ok := ctl.funcs[function]; ok {
		f.estimator.RecordArrival(ctl.hooks.Now())
	}
}

// serviceRate returns the μ the model should use for fn's standard
// container: the learned estimate when configured and available, otherwise
// the spec.
func (ctl *Controller) serviceRate(f *Function) float64 {
	if ctl.cfg.UseLearnedRates {
		if mu, ok := f.learner.Rate(1.0); ok && f.learner.Observations() >= 20 {
			return mu
		}
	}
	return f.Spec.ServiceRate()
}

// liveContainers returns fn's containers that count toward its allocation
// (Starting or Running; Draining containers are spare capacity pending
// lazy reclaim).
// The result aliases a controller-owned scratch buffer: it is valid only
// until the next liveContainers call and must not be retained.
func (ctl *Controller) liveContainers(fn string) []*cluster.Container {
	buf := ctl.cluster.AppendContainersOf(fn, ctl.liveScratch[:0])
	ctl.liveScratch = buf
	out := buf[:0]
	for _, c := range buf {
		if c.State() == cluster.Starting || c.State() == cluster.Running {
			out = append(out, c)
		}
	}
	return out
}

// drainingContainers mirrors liveContainers for the Draining state, on its
// own scratch buffer (see the struct comment); the same retention rule
// applies.
func (ctl *Controller) drainingContainers(fn string) []*cluster.Container {
	buf := ctl.cluster.AppendContainersOf(fn, ctl.drainScratch[:0])
	ctl.drainScratch = buf
	out := buf[:0]
	for _, c := range buf {
		if c.State() == cluster.Draining {
			out = append(out, c)
		}
	}
	return out
}

// liveCPU sums the current CPU of fn's live containers.
func liveCPU(cs []*cluster.Container) int64 {
	var t int64
	for _, c := range cs {
		t += c.CPUCurrent
	}
	return t
}

// desiredContainers runs the queueing model for one function: Algorithm 1
// on the homogeneous model, switching to the Alves heterogeneous bound
// when the function's pool contains deflated containers (§3.2-§3.3).
func (ctl *Controller) desiredContainers(f *Function, lambda float64) (int, error) {
	mu := ctl.serviceRate(f)
	live := ctl.liveContainers(f.Spec.Name)
	heterogeneous := false
	for _, c := range live {
		if c.Deflated() {
			heterogeneous = true
			break
		}
	}
	if !heterogeneous {
		// Warm-started scan: seeded from the previous epoch's answer, so
		// slowly-drifting rates touch O(1) candidates. The result equals
		// the cold scan's for any seed.
		c, err := queuing.MinimalContainersFrom(lambda, mu, f.SLO, f.sizeHint)
		if err != nil {
			return 0, err
		}
		f.sizeHint = c
		if c < ctl.cfg.MinContainers {
			c = ctl.cfg.MinContainers
		}
		return c, nil
	}
	// Heterogeneous pool: how many standard containers would the pool
	// need on top of the deflated ones (Fig 4's reaction)? The desired
	// count never drops below what a fresh homogeneous pool would use, so
	// scale-down remains possible once pressure ends.
	rates := ctl.rateScratch[:0]
	for _, c := range live {
		rates = append(rates, f.Spec.RateAt(c.CPUFraction()))
	}
	ctl.rateScratch = rates
	add, err := queuing.AdditionalHetContainersFrom(lambda, rates, mu, f.SLO, f.hetHint)
	if err != nil {
		return 0, err
	}
	f.hetHint = add
	want := len(live) + add
	homog, err := queuing.MinimalContainersFrom(lambda, mu, f.SLO, f.sizeHint)
	if err != nil {
		return 0, err
	}
	f.sizeHint = homog
	if add == 0 && homog < want {
		// Pool already satisfies the SLO with room to spare: allow the
		// homogeneous target so over-provisioned deflated pools shrink.
		want = homog
	}
	if want < ctl.cfg.MinContainers {
		want = ctl.cfg.MinContainers
	}
	return want, nil
}

// FunctionDemand is one function's estimated capacity need for the next
// epoch, as reported to an external (federation-level) allocator: the
// inputs the §4.1 fair-share adjustment consumes, detached from the local
// enforcement that normally follows them.
type FunctionDemand struct {
	Name       string
	User       string  // namespace for hierarchical shares ("" = flat)
	Weight     float64 // function fair-share weight ω_i
	UserWeight float64 // weight of the User namespace (1 when flat)
	DesiredCPU int64   // model-computed desire in CPU millicores
}

// Demands returns the per-function demand estimates from the most recent
// Step (model-desired CPU, fair-share weight, namespace), in registration
// order. Every desire is floored at MinContainers' worth of CPU, and —
// until the first Step has produced a real estimate — at the function's
// current live pool CPU: a controller has no demand history at bootstrap,
// and an allocator reading it then (e.g. a global epoch firing at t≈0)
// must see the provisioned (prewarmed) capacity, not an artificial zero
// it would turn into a pool-killing zero grant. After the first Step both
// floors are no-ops for sizing-governed pools, so scale-down is
// unimpeded. The federation-level global allocator gathers these from
// every site's controller each epoch.
//
// The result aliases a controller-owned scratch buffer: it is valid only
// until the next Demands call and must not be retained. Callers that need
// the report later copy it (the federation's epoch snapshot does).
func (ctl *Controller) Demands() []FunctionDemand {
	out := ctl.demandsOut[:0]
	for _, f := range ctl.fns {
		uw := 1.0
		if f.User != "" {
			if w := ctl.users[f.User]; w > 0 {
				uw = w
			}
		}
		desired := int64(f.Desired) * f.Spec.CPUMillis
		if min := int64(ctl.cfg.MinContainers) * f.Spec.CPUMillis; desired < min {
			desired = min
		}
		if ctl.stats.Steps == 0 {
			if live := liveCPU(ctl.liveContainers(f.Spec.Name)); desired < live {
				desired = live
			}
		}
		out = append(out, FunctionDemand{
			Name:       f.Spec.Name,
			User:       f.User,
			Weight:     f.Weight,
			UserWeight: uw,
			DesiredCPU: desired,
		})
	}
	ctl.demandsOut = out
	return out
}

// Capacity returns the cluster's total CPU capacity in millicores.
func (ctl *Controller) Capacity() int64 { return ctl.cluster.TotalCPU() }

// SetCapacityGrants imposes externally-computed per-function CPU grants
// with no lease: they stay valid until replaced or cleared — the
// freeze-on-stale legacy behaviour. Subsequent Steps enforce each function
// toward its grant instead of computing shares from local cluster capacity
// (the federation-level global fair-share path). A function absent from
// the map keeps its model-computed desire; a nil map restores local
// allocation. The map is copied.
func (ctl *Controller) SetCapacityGrants(grants map[string]int64) {
	ctl.SetCapacityGrantsLeased(grants, 0)
}

// SetCapacityGrantsLeased imposes externally-computed per-function CPU
// grants valid for lease from now. When the lease lapses without a renewal
// (another SetCapacityGrants* call), the controller falls back to local
// enforcement instead of freezing on stale grants forever: the next Step —
// or an explicit ExpireGrantLease call, which the federation schedules on
// its shared engine at the expiry instant — drops the grants. A
// non-positive lease means no expiry (the SetCapacityGrants behaviour);
// a nil map restores local allocation immediately.
func (ctl *Controller) SetCapacityGrantsLeased(grants map[string]int64, lease time.Duration) {
	if grants == nil {
		ctl.grants = nil
		ctl.grantDeadline = 0
		return
	}
	g := make(map[string]int64, len(grants))
	for k, v := range grants {
		g[k] = v
	}
	ctl.grants = g
	if lease > 0 {
		ctl.grantDeadline = ctl.hooks.Now() + lease
	} else {
		ctl.grantDeadline = 0
	}
}

// ExpireGrantLease drops the externally-imposed grants if their lease has
// lapsed, restoring local enforcement, and reports whether it did. A
// controller with no grants, no lease, or an unexpired lease is untouched.
// The federation calls this from an engine event at the lease deadline so
// the fallback is visible to the placement layer the instant the lease
// runs out; Step also checks, so standalone hosts need no extra wiring.
func (ctl *Controller) ExpireGrantLease() bool {
	if ctl.grants == nil || ctl.grantDeadline == 0 || ctl.hooks.Now() < ctl.grantDeadline {
		return false
	}
	ctl.grants = nil
	ctl.grantDeadline = 0
	ctl.stats.GrantLeaseExpiries++
	return true
}

// GrantedExternally reports whether an external allocator currently
// governs this controller's capacity enforcement.
func (ctl *Controller) GrantedExternally() bool { return ctl.grants != nil }

// Granted returns the externally-imposed CPU grant (millicores) for one
// function and whether such a grant exists. The federation's placement
// context exposes this per candidate site, so allocator-aware policies can
// credit granted-but-not-yet-materialized capacity.
func (ctl *Controller) Granted(fn string) (int64, bool) {
	if ctl.grants == nil {
		return 0, false
	}
	g, ok := ctl.grants[fn]
	return g, ok
}

// Step runs one allocation epoch (§3.3): estimate rates, compute desired
// capacity per function, then enforce — against the local cluster capacity
// via the §4.1 fair-share adjustment, or, when an external allocator has
// imposed grants (SetCapacityGrants), against those grants.
func (ctl *Controller) Step() error {
	demands, err := ctl.estimate()
	if err != nil {
		return err
	}
	ctl.ExpireGrantLease()
	if ctl.grants != nil {
		return ctl.enforceGrants(demands)
	}
	return ctl.enforceLocal(demands)
}

// estimate runs the demand-estimation half of an epoch: per-function rate
// estimates and model-driven desired capacity, with no enforcement. The
// returned slice aliases a controller-owned scratch buffer, valid only
// until the next estimate call — Step's enforcement consumes it before the
// epoch ends, so a steady-state epoch allocates nothing here.
func (ctl *Controller) estimate() ([]fairshare.Demand, error) {
	now := ctl.hooks.Now()
	ctl.stats.Steps++

	// 1. Rate estimates.
	for _, f := range ctl.fns {
		raw, burst := f.estimator.Rate(now)
		if ctl.cfg.NoBurstDetection {
			burst = false
		}
		f.Burst = burst
		switch {
		case burst:
			// React to the burst immediately (§5): bypass smoothing but
			// keep the smoother current.
			f.smoother.Update(raw)
			f.LambdaHat = raw
		case raw == 0:
			// The entire long window is silent: the function is idle.
			// Snap the EWMA to zero rather than decaying geometrically,
			// so idle functions release their capacity.
			f.smoother.Reset()
			f.LambdaHat = f.smoother.Update(0)
		default:
			f.LambdaHat = f.smoother.Update(raw)
		}
		// Optional load prediction (§5): provision for where the load
		// will be next epoch, not where it was.
		if f.predictor != nil {
			f.predictor.Observe(now, f.LambdaHat)
			f.LambdaHat = f.predictor.Predict(now, ctl.cfg.EvalInterval)
		}
	}

	// 2. Model-driven desired capacity.
	demands := ctl.demandScratch[:0]
	for _, f := range ctl.fns {
		want, err := ctl.desiredContainers(f, f.LambdaHat)
		if err != nil {
			return nil, fmt.Errorf("controller: sizing %s: %w", f.Spec.Name, err)
		}
		f.Desired = want
		demands = append(demands, fairshare.Demand{
			ID:      f.Spec.Name,
			Weight:  f.Weight,
			Desired: int64(want) * f.Spec.CPUMillis,
		})
	}
	ctl.demandScratch = demands
	return demands, nil
}

// enforceLocal is the paper's enforcement path: detect overload against
// the local cluster capacity, adjust via fair share, and reconcile each
// function's pool using the configured reclamation policy.
func (ctl *Controller) enforceLocal(demands []fairshare.Demand) error {
	now := ctl.hooks.Now()
	var totalDesired int64
	for _, d := range demands {
		totalDesired += d.Desired
	}

	// 3. Expire lazily-drained containers past their TTL.
	ctl.expireDrained(now)

	capacity := ctl.cluster.TotalCPU()
	ctl.headroom = capacity - totalDesired
	if totalDesired <= capacity {
		// No resource pressure: grant everyone their desire (§3.3).
		for _, f := range ctl.fns {
			if err := ctl.reconcileNormal(f, f.Desired); err != nil {
				return err
			}
		}
		return nil
	}

	// 4. Overload: weighted fair share (§4.1), hierarchical when users
	// are registered (§5), then policy-based reclamation (§4.2).
	ctl.stats.Overloads++
	grants, err := ctl.fairShares(demands, capacity)
	if err != nil {
		return err
	}
	// Reclaim first (free capacity), then grow into the freed space.
	for _, f := range ctl.fns {
		if err := ctl.shrinkTo(f, grants[f.Spec.Name]); err != nil {
			return err
		}
	}
	for _, f := range ctl.fns {
		if err := ctl.growTo(f, grants[f.Spec.Name]); err != nil {
			return err
		}
	}
	return nil
}

// grantTargets computes the per-function CPU targets the external-grant
// path enforces: each granted function's target is its grant (the model
// desire where no grant exists), floored at MinContainers' worth of CPU —
// an external allocator's snapshot is at least an epoch and a round trip
// stale, and may predate this site's first demand report entirely, so a
// stale or zero grant must not shrink a pool below the configured minimum.
// An infeasible target set (summing beyond cluster capacity) is scaled
// down by one local capped adjustment, so enforcement never tries to place
// more CPU than physically exists.
//
// The returned map aliases controller-owned scratch, valid only until the
// next grantTargets call (i.e. within the Step that requested it).
func (ctl *Controller) grantTargets(demands []fairshare.Demand, capacity int64) (map[string]int64, error) {
	clear(ctl.targetScratch)
	targets := ctl.targetScratch
	var totalTarget int64
	for _, d := range demands {
		t := d.Desired
		if g, ok := ctl.grants[d.ID]; ok {
			t = g
		}
		if t < 0 {
			t = 0
		}
		if f := ctl.funcs[d.ID]; f != nil {
			if min := int64(ctl.cfg.MinContainers) * f.Spec.CPUMillis; t < min {
				t = min
			}
		}
		targets[d.ID] = t
		totalTarget += t
	}
	if totalTarget > capacity {
		feasible := ctl.feasScratch[:0]
		for _, d := range demands {
			feasible = append(feasible, fairshare.Demand{ID: d.ID, Weight: d.Weight, Desired: targets[d.ID]})
		}
		ctl.feasScratch = feasible
		allocs, err := fairshare.AdjustCapped(feasible, capacity)
		if err != nil {
			return nil, err
		}
		for _, a := range allocs {
			targets[a.ID] = a.Adjusted
		}
	}
	return targets, nil
}

// enforceGrants reconciles every function toward its externally-imposed
// CPU grant instead of computing shares from local capacity: it computes
// the feasible per-function targets (grantTargets) and then reconciles
// each pool. A grant below the model desire is binding (overload
// semantics: immediate reclamation, then growth into the grant); a grant
// at or above the desire reconciles normally, growing past the model
// count when the grant pre-provisions capacity for offloaded work the
// global allocator expects to arrive.
func (ctl *Controller) enforceGrants(demands []fairshare.Demand) error {
	now := ctl.hooks.Now()
	var totalDesired int64
	for _, d := range demands {
		totalDesired += d.Desired
	}
	ctl.expireDrained(now)

	capacity := ctl.cluster.TotalCPU()
	ctl.headroom = capacity - totalDesired

	targets, err := ctl.grantTargets(demands, capacity)
	if err != nil {
		return err
	}
	bound := false
	for _, d := range demands {
		if targets[d.ID] < d.Desired {
			bound = true
			break
		}
	}
	if bound {
		ctl.stats.Overloads++
	}
	// Reclaim grant-bound pools first (freeing capacity), then grow.
	for _, f := range ctl.fns {
		if target := targets[f.Spec.Name]; target < int64(f.Desired)*f.Spec.CPUMillis {
			if err := ctl.shrinkTo(f, target); err != nil {
				return err
			}
		}
	}
	for _, f := range ctl.fns {
		target := targets[f.Spec.Name]
		if target < int64(f.Desired)*f.Spec.CPUMillis {
			if err := ctl.growTo(f, target); err != nil {
				return err
			}
			continue
		}
		want := f.Desired
		if w := int(target / f.Spec.CPUMillis); w > want {
			want = w // pre-provision toward the granted container count
		}
		if err := ctl.reconcileNormal(f, want); err != nil {
			return err
		}
	}
	return nil
}

// fairShares computes each function's adjusted CPU grant. With registered
// users it builds the two-level tree of §5; otherwise a flat adjustment.
func (ctl *Controller) fairShares(demands []fairshare.Demand, capacity int64) (map[string]int64, error) {
	hierarchical := false
	for _, f := range ctl.fns {
		if f.User != "" {
			hierarchical = true
			break
		}
	}
	if !hierarchical {
		var allocs []fairshare.Allocation
		var err error
		if ctl.cfg.UncappedFairShare {
			allocs, err = fairshare.Adjust(demands, capacity)
		} else {
			allocs, err = fairshare.AdjustCapped(demands, capacity)
		}
		if err != nil {
			return nil, err
		}
		out := make(map[string]int64, len(allocs))
		for _, a := range allocs {
			out[a.ID] = a.Adjusted
		}
		return out, nil
	}
	// Two-level tree: users (weighted) → functions (weighted).
	root := &fairshare.Node{ID: "::cluster"}
	userNodes := make(map[string]*fairshare.Node)
	demandOf := make(map[string]int64, len(demands))
	for _, d := range demands {
		demandOf[d.ID] = d.Desired
	}
	for _, f := range ctl.fns {
		user := f.User
		if user == "" {
			user = "::default"
		}
		un := userNodes[user]
		if un == nil {
			w := ctl.users[f.User]
			if f.User == "" || w == 0 {
				w = 1
			}
			un = &fairshare.Node{ID: "::user:" + user, Weight: w}
			userNodes[user] = un
			root.Children = append(root.Children, un)
		}
		un.Children = append(un.Children, &fairshare.Node{
			ID:      f.Spec.Name,
			Weight:  f.Weight,
			Desired: demandOf[f.Spec.Name],
		})
	}
	return fairshare.AllocateTree(root, capacity, !ctl.cfg.UncappedFairShare)
}

// expireDrained terminates Draining containers older than DrainTTL.
func (ctl *Controller) expireDrained(now time.Duration) {
	for _, f := range ctl.fns {
		for _, c := range ctl.drainingContainers(f.Spec.Name) {
			at, ok := ctl.drained[c.ID]
			if ok && now-at >= ctl.cfg.DrainTTL {
				ctl.terminate(c)
			}
		}
	}
}

// terminate removes a container everywhere.
func (ctl *Controller) terminate(c *cluster.Container) {
	delete(ctl.drained, c.ID)
	wasServable := c.Servable()
	if err := ctl.cluster.Terminate(c); err != nil {
		return
	}
	ctl.stats.Terminations++
	if wasServable {
		ctl.hooks.OnRemove(c)
	}
}

// createContainer places and cold-starts one container (possibly below
// standard size for the deflation policy's fragment-filling). On capacity
// failure it lazily reclaims drained containers and retries (§3.3: "any
// container marked for termination ... is actively terminated, and those
// resources are reallocated").
func (ctl *Controller) createContainer(f *Function, cpu int64) (*cluster.Container, error) {
	place := func() (*cluster.Container, error) {
		if cpu == f.Spec.CPUMillis {
			return ctl.cluster.Place(f.Spec.Name, cpu, f.Spec.MemoryMiB)
		}
		return ctl.cluster.PlaceDeflated(f.Spec.Name, f.Spec.CPUMillis, cpu, f.Spec.MemoryMiB)
	}
	c, err := place()
	if err != nil {
		if !ctl.reclaimDrainedFor(cpu, f.Spec.MemoryMiB) {
			return nil, err
		}
		c, err = place()
		if err != nil {
			return nil, err
		}
	}
	ctl.stats.Creations++
	ctl.hooks.ScheduleColdStart(c, f.Spec.ColdStart, func() {
		if c.State() != cluster.Starting {
			return // terminated while cold-starting
		}
		if err := ctl.cluster.MarkRunning(c); err == nil {
			ctl.hooks.OnReady(c)
		}
	})
	return c, nil
}

// reclaimDrainedFor terminates drained containers (oldest first, across
// all functions) until some node could fit the requested size. Reports
// whether any progress was made.
func (ctl *Controller) reclaimDrainedFor(cpu, mem int64) bool {
	type cand struct {
		c  *cluster.Container
		at time.Duration
	}
	var cands []cand
	for _, f := range ctl.fns {
		for _, c := range ctl.drainingContainers(f.Spec.Name) {
			cands = append(cands, cand{c, ctl.drained[c.ID]})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].at != cands[j].at {
			return cands[i].at < cands[j].at
		}
		return cands[i].c.ID < cands[j].c.ID
	})
	progress := false
	for _, cd := range cands {
		if ctl.fits(cpu, mem) {
			return true
		}
		ctl.terminate(cd.c)
		progress = true
	}
	return progress && ctl.fits(cpu, mem)
}

func (ctl *Controller) fits(cpu, mem int64) bool {
	for _, n := range ctl.cluster.Nodes() {
		if n.Fits(cpu, mem) {
			return true
		}
	}
	return false
}

// markDraining transitions a container to lazy-reclaim state. The data
// path keeps serving on it until it is actually terminated.
func (ctl *Controller) markDraining(c *cluster.Container, now time.Duration) {
	if err := ctl.cluster.MarkDraining(c); err == nil {
		ctl.drained[c.ID] = now
		ctl.stats.Drains++
	}
}

// revive pulls a draining container back into service.
func (ctl *Controller) revive(c *cluster.Container) bool {
	if err := ctl.cluster.Revive(c); err != nil {
		return false
	}
	delete(ctl.drained, c.ID)
	ctl.stats.Revivals++
	return true
}
