package tlb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// This file keeps the array-of-structs cache the struct-of-arrays Cache
// replaced — one slot struct per way, sets as [][]slot, a three-pass
// Insert — as an executable reference. Every policy's victim choice,
// every counter and every stored entry of Cache must match it step for
// step under any operation sequence.

type refSlot struct {
	valid    bool
	entry    Entry
	lastUse  uint64
	inserted uint64
	freq     uint8
}

type refCache struct {
	cfg    Config
	sets   [][]refSlot
	tick   uint64
	future *Future
	index  indexFunc
	repl   refReplacer
	stats  Stats
}

type refReplacer interface {
	onLookup(key Key)
	onHit(si int, set []refSlot, wi int)
	onInsert(si int, set []refSlot, wi int)
	victim(si int, set []refSlot) int
}

func newRefCache(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &refCache{cfg: cfg, sets: make([][]refSlot, cfg.Sets), index: newIndexFunc(cfg.Index)}
	for i := range c.sets {
		c.sets[i] = make([]refSlot, cfg.Ways)
	}
	switch cfg.Policy {
	case LRU:
		c.repl = refLRU{}
	case LFU:
		c.repl = refLFU{}
	case FIFO:
		c.repl = refFIFO{}
	case Random:
		c.repl = &refRandom{rng: rand.New(rand.NewSource(cfg.Seed))}
	case Oracle:
		c.repl = &refOracle{c: c}
	case PLRU:
		c.repl = &refPLRU{ways: cfg.Ways, bits: make([]uint64, cfg.Sets)}
	}
	return c
}

func (c *refCache) setIndex(k Key) int { return c.index(k, c.cfg.Sets) }

func (c *refCache) Lookup(key Key) (Entry, bool) {
	c.tick++
	c.stats.Lookups++
	c.repl.onLookup(key)
	si := c.setIndex(key)
	set := c.sets[si]
	for i := range set {
		s := &set[i]
		if s.valid && s.entry.Key == key {
			c.stats.Hits++
			s.lastUse = c.tick
			if s.freq < lfuMax {
				s.freq++
			}
			c.repl.onHit(si, set, i)
			return s.entry, true
		}
	}
	c.stats.Misses++
	return Entry{}, false
}

func (c *refCache) Peek(key Key) (Entry, bool) {
	set := c.sets[c.setIndex(key)]
	for i := range set {
		if set[i].valid && set[i].entry.Key == key {
			return set[i].entry, true
		}
	}
	return Entry{}, false
}

func (c *refCache) Insert(e Entry) {
	c.tick++
	c.stats.Insertions++
	si := c.setIndex(e.Key)
	set := c.sets[si]
	for i := range set {
		if set[i].valid && set[i].entry.Key == e.Key {
			set[i].entry = e
			set[i].lastUse = c.tick
			c.repl.onInsert(si, set, i)
			return
		}
	}
	for i := range set {
		if !set[i].valid {
			set[i] = refSlot{valid: true, entry: e, lastUse: c.tick, inserted: c.tick, freq: 1}
			c.repl.onInsert(si, set, i)
			return
		}
	}
	victim := c.repl.victim(si, set)
	c.stats.Evictions++
	set[victim] = refSlot{valid: true, entry: e, lastUse: c.tick, inserted: c.tick, freq: 1}
	c.repl.onInsert(si, set, victim)
}

func (c *refCache) Invalidate(key Key) bool {
	set := c.sets[c.setIndex(key)]
	for i := range set {
		if set[i].valid && set[i].entry.Key == key {
			set[i] = refSlot{}
			c.stats.Invalidates++
			return true
		}
	}
	return false
}

func (c *refCache) InvalidateSID(sid uint32) int {
	n := 0
	for si := range c.sets {
		for wi := range c.sets[si] {
			s := &c.sets[si][wi]
			if s.valid && s.entry.Key.SID == sid {
				*s = refSlot{}
				n++
			}
		}
	}
	c.stats.Invalidates += uint64(n)
	return n
}

func (c *refCache) Flush() int {
	n := 0
	for si := range c.sets {
		for wi := range c.sets[si] {
			if c.sets[si][wi].valid {
				n++
			}
			c.sets[si][wi] = refSlot{}
		}
	}
	c.stats.Invalidates += uint64(n)
	return n
}

func (c *refCache) Len() int { return len(c.Entries()) }

func (c *refCache) Entries() []Entry {
	var out []Entry
	for si := range c.sets {
		for wi := range c.sets[si] {
			if c.sets[si][wi].valid {
				out = append(out, c.sets[si][wi].entry)
			}
		}
	}
	return out
}

type refHooks struct{}

func (refHooks) onLookup(Key)                 {}
func (refHooks) onHit(int, []refSlot, int)    {}
func (refHooks) onInsert(int, []refSlot, int) {}

type refLRU struct{ refHooks }

func (refLRU) victim(_ int, set []refSlot) int {
	best := 0
	for i := 1; i < len(set); i++ {
		if set[i].lastUse < set[best].lastUse {
			best = i
		}
	}
	return best
}

type refLFU struct{ refHooks }

func (refLFU) onHit(_ int, set []refSlot, wi int) {
	if set[wi].freq == lfuMax {
		for j := range set {
			set[j].freq /= 2
		}
	}
}

func (refLFU) victim(_ int, set []refSlot) int {
	best := 0
	for i := 1; i < len(set); i++ {
		if set[i].freq < set[best].freq ||
			(set[i].freq == set[best].freq && set[i].lastUse < set[best].lastUse) {
			best = i
		}
	}
	return best
}

type refFIFO struct{ refHooks }

func (refFIFO) victim(_ int, set []refSlot) int {
	best := 0
	for i := 1; i < len(set); i++ {
		if set[i].inserted < set[best].inserted {
			best = i
		}
	}
	return best
}

type refRandom struct {
	refHooks
	rng *rand.Rand
}

func (r *refRandom) victim(_ int, set []refSlot) int { return r.rng.Intn(len(set)) }

type refOracle struct {
	refHooks
	c *refCache
}

func (o *refOracle) onLookup(key Key) {
	if o.c.future != nil {
		o.c.future.Observe(key)
	}
}

func (o *refOracle) victim(_ int, set []refSlot) int {
	best, bestNext := 0, o.c.future.Next(set[0].entry.Key)
	for i := 1; i < len(set); i++ {
		n := o.c.future.Next(set[i].entry.Key)
		if n > bestNext {
			best, bestNext = i, n
		}
	}
	return best
}

type refPLRU struct {
	refHooks
	ways int
	bits []uint64
}

func (p *refPLRU) onHit(si int, _ []refSlot, wi int)    { p.touch(si, wi) }
func (p *refPLRU) onInsert(si int, _ []refSlot, wi int) { p.touch(si, wi) }

func (p *refPLRU) touch(si, wi int) {
	node := 1
	for span := p.ways; span > 1; span /= 2 {
		half := span / 2
		bit := uint64(1) << (node - 1)
		if wi < half {
			p.bits[si] |= bit
			node = node * 2
		} else {
			p.bits[si] &^= bit
			node = node*2 + 1
			wi -= half
		}
	}
}

func (p *refPLRU) victim(si int, _ []refSlot) int {
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

// refGeometries are the (sets, ways) shapes the equivalence runs cover:
// the model's context cache, DevTLB, page-walk caches and prefetch
// buffer, plus a deep set-associative shape.
var refGeometries = [][2]int{{1, 64}, {8, 8}, {32, 16}, {64, 16}, {1, 8}, {128, 8}}

// cacheOp is one decoded operation of an equivalence run.
type cacheOp struct {
	kind  uint8 // see decodeCacheOps
	key   Key
	shift uint8
}

// decodeCacheOps turns bytes into operations, three bytes each: the
// operation kind (low 5 bits) and page-size class (top bit), then two
// bytes choosing one of 4*entries keys over 16 SIDs, so keys repeat
// often enough to hit and outnumber the ways enough to evict. Lookups
// and inserts dominate; half the inserts fill the key of the latest
// lookup, as the model's caches fill after a miss. Invalidations,
// flushes and stats resets are rarer.
func decodeCacheOps(data []byte, entries int) []cacheOp {
	ops := make([]cacheOp, 0, len(data)/3)
	var looked Key
	for ; len(data) >= 3; data = data[3:] {
		idx := (int(data[1])<<8 | int(data[2])) % (4 * entries)
		op := cacheOp{
			kind:  data[0] % 32,
			key:   Key{SID: uint32(idx & 15), Tag: uint64(idx >> 4)},
			shift: 12 + 9*(data[0]>>7),
		}
		switch {
		case op.kind < 12:
			looked = op.key
		case op.kind >= 18 && op.kind < 24:
			op.key = looked
		}
		ops = append(ops, op)
	}
	return ops
}

// checkAgainstReference runs ops against a fresh Cache and a fresh
// reference built from cfg, failing at the first step where a return
// value, Stats, Len or the sorted Entries differ. Oracle caches share
// one Future built from the run's lookup stream: both caches observe
// every lookup, so it stays in the same state for each victim choice.
func checkAgainstReference(t *testing.T, cfg Config, ops []cacheOp) {
	t.Helper()
	c, ref := New(cfg), newRefCache(cfg)
	if cfg.Policy == Oracle {
		var seq []Key
		for _, op := range ops {
			if op.kind < 12 {
				seq = append(seq, op.key, op.key)
			}
		}
		f := NewFuture(seq)
		c.SetFuture(f)
		ref.future = f
	}
	for step, op := range ops {
		var got, want string
		switch k := op.kind; {
		case k < 12:
			e1, ok1 := c.Lookup(op.key)
			e2, ok2 := ref.Lookup(op.key)
			got, want = fmt.Sprint(e1, ok1), fmt.Sprint(e2, ok2)
		case k < 24: // 18..23 fill the latest lookup's key
			e := Entry{Key: op.key, Value: uint64(step)<<4 | uint64(op.key.SID), PageShift: op.shift}
			c.Insert(e)
			ref.Insert(e)
		case k < 27:
			e1, ok1 := c.Peek(op.key)
			e2, ok2 := ref.Peek(op.key)
			got, want = fmt.Sprint(e1, ok1), fmt.Sprint(e2, ok2)
		case k < 29:
			got, want = fmt.Sprint(c.Invalidate(op.key)), fmt.Sprint(ref.Invalidate(op.key))
		case k == 29:
			got, want = fmt.Sprint(c.InvalidateSID(op.key.SID)), fmt.Sprint(ref.InvalidateSID(op.key.SID))
		case k == 30:
			got, want = fmt.Sprint(c.Flush()), fmt.Sprint(ref.Flush())
		default:
			c.ResetStats()
			ref.stats = Stats{}
		}
		if got != want {
			t.Fatalf("%+v step %d op %+v: returned %s, reference %s", cfg, step, op, got, want)
		}
		if s := c.Stats(); s != ref.stats {
			t.Fatalf("%+v step %d op %+v: stats %+v, reference %+v", cfg, step, op, s, ref.stats)
		}
		if n, m := c.Len(), ref.Len(); n != m {
			t.Fatalf("%+v step %d op %+v: Len %d, reference %d", cfg, step, op, n, m)
		}
		if ge, we := c.Entries(), ref.Entries(); !sameEntries(ge, we) {
			t.Fatalf("%+v step %d op %+v: entries\n%v\nreference\n%v", cfg, step, op, ge, we)
		}
	}
}

// sameEntries compares two entry lists as sets. Both caches list entries
// set by set, way by way, so the unsorted compare almost always settles
// it; sorting is the fallback that makes order irrelevant.
func sameEntries(a, b []Entry) bool {
	if slices.Equal(a, b) {
		return true
	}
	cmp := func(x, y Entry) int {
		if x.Key.SID != y.Key.SID {
			return int(x.Key.SID) - int(y.Key.SID)
		}
		if x.Key.Tag != y.Key.Tag {
			if x.Key.Tag < y.Key.Tag {
				return -1
			}
			return 1
		}
		return 0
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, cmp)
	slices.SortFunc(b, cmp)
	return slices.Equal(a, b)
}

// TestCacheMatchesReference drives every policy, index mode and model
// geometry through random operation sequences in lockstep with the
// reference implementation.
func TestCacheMatchesReference(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 600
	}
	policies := []PolicyKind{LRU, LFU, FIFO, Random, Oracle, PLRU}
	modes := []IndexMode{ByAddress, BySID, Hashed}
	rng := rand.New(rand.NewSource(1))
	for _, p := range policies {
		for _, m := range modes {
			for _, g := range refGeometries {
				cfg := Config{Name: "ref", Sets: g[0], Ways: g[1], Policy: p, Index: m, Seed: rng.Int63()}
				data := make([]byte, 3*steps)
				rng.Read(data)
				checkAgainstReference(t, cfg, decodeCacheOps(data, cfg.Entries()))
			}
		}
	}
}

// FuzzCacheMatchesReference lets the fuzzer pick the configuration and
// the operation sequence: byte 0 the policy, byte 1 the index mode,
// byte 2 the geometry, byte 3 the Random seed, the rest operations.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 13, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		g := refGeometries[int(data[2])%len(refGeometries)]
		cfg := Config{
			Name:   "fuzz",
			Sets:   g[0],
			Ways:   g[1],
			Policy: PolicyKind(data[0] % 6),
			Index:  IndexMode(data[1] % 3),
			Seed:   int64(data[3]),
		}
		checkAgainstReference(t, cfg, decodeCacheOps(data[4:], cfg.Entries()))
	})
}
