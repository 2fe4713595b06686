package trace

import (
	"fmt"
	"math"
	"math/rand"

	"hypertrio/internal/mem"
	"hypertrio/internal/workload"
)

// TenantClass is the identity of one class inside a mixed tenant
// population: a contiguous SID range sharing one workload profile and
// one arbitration weight. Classes are carried on Meta so the
// performance model can build class-correct address spaces and report
// per-class results without re-deriving the partition.
type TenantClass struct {
	Name    string
	Profile workload.Profile
	Tenants int
	// Weight is the class's arbitration weight: a weight-w tenant gets w
	// consecutive burst slots per round-robin turn (or w-proportional
	// probability under random interleave). Weight 0 means 1.
	Weight int
}

// weight returns the effective arbitration weight (zero → 1).
func (c TenantClass) weight() int {
	if c.Weight <= 0 {
		return 1
	}
	return c.Weight
}

// ClassSpec describes one class of a mixed population for construction:
// the class identity plus its budget scale. Scale multiplies the
// per-tenant Table III request budgets; a heavy-hitter class pairs a
// large Weight with a proportionally larger Scale so the edge-effect
// truncation (first exhausted tenant ends the stream) does not cut the
// run to 1/weight of its intended length.
type ClassSpec struct {
	Name    string
	Profile workload.Profile
	Tenants int
	Weight  int
	Scale   float64
}

// MixConfig drives NewMixStream / ConstructMix: a seeded, deterministic
// composition of tenant classes under one interleave discipline. SIDs
// are assigned contiguously in class order starting at 1.
type MixConfig struct {
	Classes    []ClassSpec
	Interleave Interleave
	Seed       int64
	// RNG selects the per-tenant random-source implementation, exactly as
	// in Config (CompactRNG for million-tenant streaming).
	RNG workload.RNG
}

// TotalTenants returns the population size across all classes.
func (c MixConfig) TotalTenants() int {
	n := 0
	for _, cl := range c.Classes {
		n += cl.Tenants
	}
	return n
}

func (c MixConfig) validate() error {
	if len(c.Classes) == 0 {
		return fmt.Errorf("trace: mix needs at least one class")
	}
	if c.Interleave.Burst <= 0 {
		return fmt.Errorf("trace: interleave burst must be positive")
	}
	for i, cl := range c.Classes {
		if cl.Tenants <= 0 {
			return fmt.Errorf("trace: mix class %d (%s): tenants must be positive, got %d", i, cl.Name, cl.Tenants)
		}
		if cl.Weight < 0 {
			return fmt.Errorf("trace: mix class %d (%s): weight must be >= 0, got %d", i, cl.Name, cl.Weight)
		}
		if !(cl.Scale > 0 && cl.Scale <= math.MaxFloat64) {
			return fmt.Errorf("trace: mix class %d (%s): scale must be positive and finite, got %v", i, cl.Name, cl.Scale)
		}
		if err := cl.Profile.Validate(); err != nil {
			return fmt.Errorf("trace: mix class %d (%s): %w", i, cl.Name, err)
		}
	}
	return nil
}

// classes renders the construction spec as the identity carried on Meta.
func (c MixConfig) classes() []TenantClass {
	out := make([]TenantClass, len(c.Classes))
	for i, cl := range c.Classes {
		w := cl.Weight
		if w <= 0 {
			w = 1
		}
		out[i] = TenantClass{Name: cl.Name, Profile: cl.Profile, Tenants: cl.Tenants, Weight: w}
	}
	return out
}

// MixStream is the online source for a mixed tenant population. It is
// the multi-class generalization of Stream: O(tenants) memory, the same
// edge-effect truncation (the first exhausted tenant — in any class —
// ends the stream), and a weighted interleave where a weight-w tenant
// receives w consecutive base bursts per round-robin turn, or
// w-proportional draw probability under random arbitration.
type MixStream struct {
	cfg   MixConfig
	total int

	gens    []*workload.Generator
	stats   []TenantStat
	bursts  []int32 // per-tenant burst length: Interleave.Burst x class weight
	weights []int   // per-tenant arbitration weight (for random draws)
	sumW    int
	rng     *rand.Rand

	cur       int
	burstLeft int
	done      bool
}

// NewMixStream validates the mix and builds the online source.
func NewMixStream(c MixConfig) (*MixStream, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	s := &MixStream{cfg: c, total: c.TotalTenants()}
	s.init()
	return s, nil
}

func (s *MixStream) init() {
	c := s.cfg
	if s.gens == nil {
		s.gens = make([]*workload.Generator, s.total)
		s.stats = make([]TenantStat, s.total)
		s.bursts = make([]int32, s.total)
		s.weights = make([]int, s.total)
	}
	s.sumW = 0
	i := 0
	for _, cl := range c.Classes {
		w := cl.Weight
		if w <= 0 {
			w = 1
		}
		for t := 0; t < cl.Tenants; t++ {
			sid := mem.SID(i + 1)
			s.gens[i] = workload.NewGeneratorRNG(cl.Profile, sid, c.Seed, cl.Scale, c.RNG)
			s.stats[i] = TenantStat{SID: sid, Budget: s.gens[i].Total()}
			s.bursts[i] = int32(c.Interleave.Burst * w)
			s.weights[i] = w
			s.sumW += w
			i++
		}
	}
	s.rng = rand.New(rand.NewSource(c.Seed ^ 0x7261_6e64))
	s.cur, s.burstLeft, s.done = 0, 0, false
}

// Meta returns the stream's identity. Benchmark/Scale/Profile describe
// the first class (the population lead); Classes carries the full
// partition, which class-aware consumers use instead.
func (s *MixStream) Meta() Meta {
	lead := s.cfg.Classes[0]
	return Meta{
		Benchmark:  lead.Profile.Kind,
		Interleave: s.cfg.Interleave,
		Tenants:    s.total,
		Seed:       s.cfg.Seed,
		Scale:      lead.Scale,
		Profile:    lead.Profile,
		Classes:    s.cfg.classes(),
	}
}

// drawTenant picks a tenant index with probability proportional to its
// arbitration weight (uniform when all weights are 1, reproducing
// Stream's draw semantics bit-for-bit would require identical RNG
// consumption — mixes are a distinct stream identity, not a superset
// encoding of single-class streams).
func (s *MixStream) drawTenant() int {
	if s.sumW == s.total { // all weights 1
		return s.rng.Intn(s.total)
	}
	d := s.rng.Intn(s.sumW)
	for i, w := range s.weights {
		if d < w {
			return i
		}
		d -= w
	}
	return s.total - 1 // unreachable
}

// Next synthesizes the next packet of the weighted interleaved stream.
func (s *MixStream) Next() (workload.Packet, bool) {
	if s.done {
		return workload.Packet{}, false
	}
	if s.burstLeft == 0 {
		if s.cfg.Interleave.Kind == Random {
			s.cur = s.drawTenant()
			s.burstLeft = s.cfg.Interleave.Burst
		} else {
			s.burstLeft = int(s.bursts[s.cur])
		}
	}
	pkt, ok := s.gens[s.cur].Next()
	if !ok {
		s.done = true
		return workload.Packet{}, false
	}
	st := &s.stats[s.cur]
	st.Packets++
	st.Consumed += workload.RequestsPerPacket
	s.burstLeft--
	if s.burstLeft == 0 && s.cfg.Interleave.Kind == RoundRobin {
		s.cur = (s.cur + 1) % s.total
	}
	return pkt, true
}

// Reset rewinds the stream to its beginning.
func (s *MixStream) Reset() { s.init() }

// Materialized returns nil: the stream never holds the whole sequence.
func (s *MixStream) Materialized() *Trace { return nil }

// TenantStats returns the per-tenant accounting accumulated so far; the
// returned slice is the stream's live state.
func (s *MixStream) TenantStats() []TenantStat { return s.stats }

// MinBudget returns the smallest per-tenant request budget across every
// class — the edge-effect bound on stream length.
func (s *MixStream) MinBudget() int {
	if len(s.stats) == 0 {
		return 0
	}
	min := s.stats[0].Budget
	for _, st := range s.stats[1:] {
		if st.Budget < min {
			min = st.Budget
		}
	}
	return min
}

// ConstructMix materializes a mixed-population trace by draining a
// MixStream — one generation path for both modes, so streaming and
// materialized mixes agree bit-for-bit by construction (the same
// contract Construct has with Stream).
func ConstructMix(c MixConfig) (*Trace, error) {
	src, err := NewMixStream(c)
	if err != nil {
		return nil, err
	}
	meta := src.Meta()
	tr := &Trace{
		Benchmark:  meta.Benchmark,
		Interleave: meta.Interleave,
		Tenants:    meta.Tenants,
		Seed:       meta.Seed,
		Scale:      meta.Scale,
		Profile:    meta.Profile,
		Classes:    meta.Classes,
	}
	tr.Packets = make([]workload.Packet, 0, (src.MinBudget()/workload.RequestsPerPacket)*meta.Tenants)
	for {
		pkt, ok := src.Next()
		if !ok {
			break
		}
		tr.Packets = append(tr.Packets, pkt)
	}
	tr.Stats = src.TenantStats()
	return tr, nil
}
