package workload

import (
	"bolt/internal/sim"
)

// Spec is a fully parameterised application: its identity (label and class),
// its baseline resource-pressure profile at full load, the fraction of each
// resource's pressure that scales with load (vs. fixed overhead like
// resident memory), a load pattern, and measurement jitter.
type Spec struct {
	Label string // fine-grained identity, e.g. "hadoop:svm:L"
	Class string // coarse class, e.g. "hadoop"

	Base sim.Vector // pressure at load factor 1.0
	// LoadScaled[r] is the fraction of Base[r] that follows the load
	// pattern; the remainder is constant while the app runs. Memory and
	// disk capacity are mostly load-independent, bandwidths mostly
	// load-dependent.
	LoadScaled sim.Vector // entries in [0, 100] interpreted as percent
	// Sens is the app's sensitivity to contention per resource (0-100,
	// scaled to 0-1 internally). Zero value derives it from Base.
	Sens sim.Vector

	Jitter float64 // per-tick multiplicative noise stddev (e.g. 0.05)
}

// sensitivity returns the effective sensitivity vector in 0-1: explicit if
// set, otherwise proportional to the base profile (applications are most
// sensitive to the resources they use most, §5.1).
func (s Spec) sensitivity() sim.Vector {
	var zero sim.Vector
	src := s.Sens
	if src == zero {
		src = s.Base
	}
	return src.Scale(0.01)
}

// App is a running application instance: a Spec bound to a start time and a
// deterministic noise stream. App implements sim.Demander. Demand is a pure
// function of the tick, so repeated queries for the same time agree — the
// simulator may evaluate a tick several times (probe ramps, utilisation
// checks) and must see a consistent world.
type App struct {
	Spec    Spec
	Pattern LoadPattern
	Start   sim.Tick // tick at which the app began running
	seed    uint64

	// memoVal/memoTick cache the last Demand evaluation. Demand is a pure
	// function of the tick (hash-based noise, no mutable RNG state), so the
	// cache is bit-exact by construction. It matters because one simulator
	// tick evaluates the same app several times — the observation snapshot
	// asks every VM top-level, and a co-resident Reactive's one-step
	// relaxation asks everyone again mid-build. An App belongs to one VM on
	// one host and is evaluated only under that host's detection flow, so a
	// plain field is safe (same single-flow argument as probe.Adversary).
	memoVal   sim.Vector
	memoTick  sim.Tick
	memoValid bool
}

// NewApp instantiates spec with the given noise seed, starting at tick 0.
func NewApp(spec Spec, pattern LoadPattern, seed uint64) *App {
	if pattern == nil {
		pattern = Constant{Level: 1}
	}
	return &App{Spec: spec, Pattern: pattern, seed: seed}
}

// hash64 mixes a tick into the app's seed (splitmix64 finaliser), providing
// deterministic per-tick noise without mutable RNG state.
func (a *App) hash64(t sim.Tick, salt uint64) uint64 {
	z := a.seed ^ (uint64(t) * 0x9e3779b97f4a7c15) ^ (salt * 0xd6e8feb86659fd93)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// noise returns a deterministic multiplicative jitter factor around 1 for
// resource r at tick t.
func (a *App) noise(t sim.Tick, r sim.Resource) float64 {
	if a.Spec.Jitter == 0 {
		return 1
	}
	// Uniform in [1-2j, 1+2j]: cheap, bounded, mean 1.
	u := float64(a.hash64(t, uint64(r)+1)>>11) / (1 << 53)
	return 1 + a.Spec.Jitter*2*(2*u-1)
}

// Demand implements sim.Demander: the base profile split into a fixed and a
// load-following component, modulated by the pattern and jitter.
//
//bolt:hotpath
func (a *App) Demand(t sim.Tick) sim.Vector {
	if a.memoValid && a.memoTick == t {
		return a.memoVal
	}
	rel := t - a.Start
	if rel < 0 {
		return sim.Vector{}
	}
	load := a.Pattern.Factor(rel)
	var out sim.Vector
	for r := sim.Resource(0); r < sim.NumResources; r++ {
		base := a.Spec.Base.Get(r)
		frac := a.Spec.LoadScaled.Get(r) / 100
		level := base*(1-frac) + base*frac*load
		out.Set(r, level*a.noise(t, r))
	}
	a.memoVal, a.memoTick, a.memoValid = out, t, true
	return out
}

// Sensitivity implements sim.Demander.
func (a *App) Sensitivity() sim.Vector { return a.Spec.sensitivity() }

// Phase is one segment of a multi-phase victim: run spec/pattern for
// Duration ticks, then move on.
type Phase struct {
	Spec     Spec
	Pattern  LoadPattern
	Duration sim.Tick
}

// Sequence chains phases, reproducing victims that run consecutive jobs on
// one instance (Fig. 8: SPEC → Hadoop → Spark → memcached → Cassandra).
// After the last phase it keeps running the final phase's spec. Sequence
// implements sim.Demander.
type Sequence struct {
	phases []Phase
	apps   []*App
	starts []sim.Tick
}

// NewSequence builds a multi-phase victim. It panics on an empty phase
// list.
func NewSequence(phases []Phase, seed uint64) *Sequence {
	if len(phases) == 0 {
		panic("workload: empty phase sequence")
	}
	s := &Sequence{phases: phases}
	var at sim.Tick
	for i, p := range phases {
		app := NewApp(p.Spec, p.Pattern, seed+uint64(i)*0x9e37)
		app.Start = at
		s.apps = append(s.apps, app)
		s.starts = append(s.starts, at)
		at += p.Duration
	}
	return s
}

// active returns the phase index live at tick t.
func (s *Sequence) active(t sim.Tick) int {
	for i := len(s.starts) - 1; i >= 0; i-- {
		if t >= s.starts[i] {
			return i
		}
	}
	return 0
}

// Demand implements sim.Demander.
func (s *Sequence) Demand(t sim.Tick) sim.Vector {
	return s.apps[s.active(t)].Demand(t)
}

// Sensitivity implements sim.Demander. It reports the sensitivity of the
// first phase; callers tracking phases should use ActiveSpec.
func (s *Sequence) Sensitivity() sim.Vector {
	return s.apps[0].Spec.sensitivity()
}

// ActiveSpec returns the Spec of the phase live at tick t.
func (s *Sequence) ActiveSpec(t sim.Tick) Spec {
	return s.phases[s.active(t)].Spec
}

var (
	_ sim.Demander = (*App)(nil)
	_ sim.Demander = (*Sequence)(nil)
)
