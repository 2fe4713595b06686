package tlb

import (
	"fmt"
	"math/rand"
)

// PolicyKind selects a replacement policy.
type PolicyKind uint8

const (
	// LRU evicts the least recently used way.
	LRU PolicyKind = iota
	// LFU evicts the least frequently used way, tracking accesses in a
	// 4-bit counter per way and halving the whole row when any counter
	// saturates — the scheme the paper motivates from the single-tenant
	// access-frequency analysis (§IV-D, §V-C).
	LFU
	// FIFO evicts the oldest insertion.
	FIFO
	// Random evicts a uniformly random way (deterministic per seed).
	Random
	// Oracle evicts the way whose next use lies furthest in the future
	// (Belady's MIN); it requires future knowledge via SetFuture.
	Oracle
	// PLRU is tree pseudo-LRU: one bit per internal node of a binary
	// tree over the ways, flipped away from each touched way — the
	// hardware-cheap LRU approximation most real TLBs implement.
	// Requires a power-of-two way count of at most 64.
	PLRU
)

// String returns the policy's conventional name.
func (p PolicyKind) String() string {
	switch p {
	case LRU:
		return "LRU"
	case LFU:
		return "LFU"
	case FIFO:
		return "FIFO"
	case Random:
		return "RAND"
	case Oracle:
		return "oracle"
	case PLRU:
		return "PLRU"
	}
	return fmt.Sprintf("PolicyKind(%d)", uint8(p))
}

// ParsePolicy converts a name (as accepted by the CLIs) to a PolicyKind.
func ParsePolicy(s string) (PolicyKind, error) {
	switch s {
	case "lru", "LRU":
		return LRU, nil
	case "lfu", "LFU":
		return LFU, nil
	case "fifo", "FIFO":
		return FIFO, nil
	case "rand", "random", "RAND":
		return Random, nil
	case "oracle", "belady", "min":
		return Oracle, nil
	case "plru", "pseudo-lru", "PLRU":
		return PLRU, nil
	}
	return 0, fmt.Errorf("tlb: unknown policy %q", s)
}

// replacer is a replacement policy held by the cache as a value. The
// cache maintains the generic per-way metadata (lastUse, inserted, freq)
// on every access; a replacer adds policy-specific bookkeeping via the
// hooks and picks eviction victims. Hooks receive the cache, the set
// index si and the way wi, and read only the arrays they need: way wi
// of set si lives at index si*c.ways+wi. Adding a policy means adding a
// PolicyKind constant and a case in newReplacer — the cache itself never
// switches on the policy again.
type replacer interface {
	// onLookup observes every demand access, before the set is scanned
	// (the Belady oracle consumes the access stream here).
	onLookup(c *Cache, key Key)
	// onHit runs after the cache refreshed the generic metadata of a
	// demand hit on way wi of set si.
	onHit(c *Cache, si, wi int)
	// onInsert runs after a fill landed in way wi of set si (a fresh
	// insertion, an eviction refill, or an in-place refresh).
	onInsert(c *Cache, si, wi int)
	// victim picks the way to evict; called only on full sets.
	victim(c *Cache, si int) int
}

// newReplacer builds the policy value for a validated configuration.
func newReplacer(cfg Config) replacer {
	switch cfg.Policy {
	case LRU:
		return lruReplacer{}
	case LFU:
		return lfuReplacer{}
	case FIFO:
		return fifoReplacer{}
	case Random:
		return &randomReplacer{rng: rand.New(rand.NewSource(cfg.Seed))}
	case Oracle:
		return oracleReplacer{}
	case PLRU:
		return &plruReplacer{ways: cfg.Ways, bits: make([]uint64, cfg.Sets)}
	}
	panic(fmt.Sprintf("tlb: unreachable policy %d", cfg.Policy))
}

// noHooks provides the empty hook set; policies embed it and override
// what they need.
type noHooks struct{}

func (noHooks) onLookup(*Cache, Key)      {}
func (noHooks) onHit(*Cache, int, int)    {}
func (noHooks) onInsert(*Cache, int, int) {}

// minWay returns the way of the first minimum of a set's metadata row.
func minWay(row []uint64) int {
	best, min := 0, row[0]
	for i, v := range row {
		if v < min {
			best, min = i, v
		}
	}
	return best
}

type lruReplacer struct{ noHooks }

func (lruReplacer) victim(c *Cache, si int) int {
	base := si * c.ways
	return minWay(c.lastUse[base : base+c.ways])
}

type lfuReplacer struct{ noHooks }

// onHit ages the row: when a 4-bit counter saturates, every counter in
// the row is halved (the RRIP-style scheme the paper adopts).
func (lfuReplacer) onHit(c *Cache, si, wi int) {
	base := si * c.ways
	row := c.freq[base : base+c.ways]
	if row[wi] == lfuMax {
		for j := range row {
			row[j] /= 2
		}
	}
}

func (lfuReplacer) victim(c *Cache, si int) int {
	base := si * c.ways
	freq, last := c.freq[base:base+c.ways], c.lastUse[base:base+c.ways]
	best, bf, bl := 0, freq[0], last[0]
	for i, f := range freq {
		if l := last[i]; f < bf || (f == bf && l < bl) {
			best, bf, bl = i, f, l
		}
	}
	return best
}

type fifoReplacer struct{ noHooks }

func (fifoReplacer) victim(c *Cache, si int) int {
	base := si * c.ways
	return minWay(c.inserted[base : base+c.ways])
}

type randomReplacer struct {
	noHooks
	rng *rand.Rand
}

func (r *randomReplacer) victim(c *Cache, _ int) int { return r.rng.Intn(c.ways) }

type oracleReplacer struct{ noHooks }

func (oracleReplacer) onLookup(c *Cache, key Key) {
	if c.future != nil {
		c.future.Observe(key)
	}
}

func (oracleReplacer) victim(c *Cache, si int) int {
	if c.future == nil {
		panic("tlb: oracle cache used without SetFuture")
	}
	base := si * c.ways
	keys := c.keys[base : base+c.ways]
	best, bestNext := 0, c.future.Next(keys[0].key())
	for i := 1; i < len(keys); i++ {
		n := c.future.Next(keys[i].key())
		if n > bestNext {
			best, bestNext = i, n
		}
	}
	return best
}

// plruReplacer is tree pseudo-LRU: per set, one bit per internal node of
// a binary tree over the ways. Touching a way flips the bits on its
// root-to-leaf path to point away from it; the victim walk follows the
// bits to the leaf they point at.
type plruReplacer struct {
	noHooks
	ways int
	bits []uint64 // one tree per set, heap-ordered, node n at bit n-1
}

func (p *plruReplacer) onHit(_ *Cache, si, wi int)    { p.touch(si, wi) }
func (p *plruReplacer) onInsert(_ *Cache, si, wi int) { p.touch(si, wi) }

func (p *plruReplacer) touch(si, wi int) {
	node := 1
	for span := p.ways; span > 1; span /= 2 {
		half := span / 2
		bit := uint64(1) << (node - 1)
		if wi < half {
			p.bits[si] |= bit // victim search goes right
			node = node * 2
		} else {
			p.bits[si] &^= bit // victim search goes left
			node = node*2 + 1
			wi -= half
		}
	}
}

func (p *plruReplacer) victim(_ *Cache, si int) int {
	node, lo := 1, 0
	for span := p.ways; span > 1; span /= 2 {
		half := span / 2
		if p.bits[si]&(1<<(node-1)) != 0 {
			lo += half
			node = node*2 + 1
		} else {
			node = node * 2
		}
	}
	return lo
}
