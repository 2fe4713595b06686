// Package iommu models the chipset side of the translation path: the
// context cache, an optional chipset IOTLB, the partitionable L2/L3
// page-walk caches, and the two-dimensional page-table walker driven
// against the real page tables in internal/mem.
//
// The package is purely functional with respect to time: Translate
// reports how many physical memory accesses the translation performed
// and which structures hit; the performance model (internal/core)
// converts those counts into latency.
package iommu

import (
	"fmt"

	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
	"hypertrio/internal/tlb"
)

// Config describes the chipset translation hardware.
type Config struct {
	// ContextCache caches SID -> context entries; a miss costs
	// mem.ContextReadAccesses memory reads.
	ContextCache tlb.Config
	// IOTLB is an optional chipset-resident gIOVA->hPA cache (used by
	// the Fig. 4 motivational study; the Base/HyperTRIO configurations
	// of Table IV rely on the on-device DevTLB instead). Sets == 0
	// disables it.
	IOTLB tlb.Config
	// L2PWC caches partial walks at 2 MB granularity: (SID, iova>>21) ->
	// host address of the guest L1 table. 4 KB mappings only.
	L2PWC tlb.Config
	// L3PWC caches partial walks at 1 GB granularity: (SID, iova>>30) ->
	// host address of the guest L2 table.
	L3PWC tlb.Config
	// MemoEntries sizes the epoch-validated walk-memoization table that
	// short-circuits repeated identical nested walks (a simulator
	// optimization, not modeled hardware — replays charge exactly the
	// accesses the real walk would have performed, so results are
	// byte-identical either way). 0 selects DefaultMemoEntries; negative
	// disables memoization; other values round up to a power of two.
	MemoEntries int
}

// DefaultContextCache returns the context-cache geometry used by every
// experiment: 64 entries, fully associative, LRU.
func DefaultContextCache() tlb.Config {
	return tlb.Config{Name: "context-cache", Sets: 1, Ways: 64, Policy: tlb.LRU}
}

// IOMMU is the chipset translation agent for one shared device.
type IOMMU struct {
	cfg Config

	ctxTable *mem.ContextTable
	tenants  *mem.TenantTables

	cc    *tlb.Cache
	iotlb *tlb.Cache // nil when disabled
	l2pwc *tlb.Cache
	l3pwc *tlb.Cache

	history *History

	// memo short-circuits repeated identical nested walks; nil when
	// disabled (Config.MemoEntries < 0). See memo.go.
	memo *walkMemo

	// walkBuf is the reused access scratch for one translation's nested
	// walk: Translate only needs the access count, so the record slice is
	// recycled and a warm translation performs no allocation.
	walkBuf []mem.NestedAccess
	// derived holds the entry of the latest memo miss, stored or not
	// (a failed walk, or memoization disabled).
	derived memoEntry

	// Counters (observability cells; Stats assembles the snapshot view).
	translations obs.Counter
	walks        obs.Counter
	memAccesses  obs.Counter
}

// New builds the IOMMU. ctxTable must contain an entry for every SID that
// will translate; tenants maps each SID to its nested page tables.
func New(cfg Config, ctxTable *mem.ContextTable, tenants *mem.TenantTables) *IOMMU {
	u := &IOMMU{
		cfg:      cfg,
		ctxTable: ctxTable,
		tenants:  tenants,
		cc:       tlb.New(cfg.ContextCache),
		l2pwc:    tlb.New(cfg.L2PWC),
		l3pwc:    tlb.New(cfg.L3PWC),
		history:  NewHistory(DefaultHistoryDepth),
		memo:     newWalkMemo(cfg.MemoEntries),
	}
	if cfg.IOTLB.Sets > 0 {
		u.iotlb = tlb.New(cfg.IOTLB)
	}
	return u
}

// Config returns the chipset's configuration.
func (u *IOMMU) Config() Config { return u.cfg }

// Result reports what one translation did.
type Result struct {
	HPA uint64

	CCHit    bool
	IOTLBHit bool
	// PWCLevel records the deepest page-walk-cache hit: 0 none,
	// 2 for the L2 (2 MB granule) cache, 3 for the L3 (1 GB granule).
	PWCLevel int
	// MemAccesses is the number of physical memory reads performed
	// (context table + page-table walk). Zero on an IOTLB hit with a
	// warm context cache.
	MemAccesses int
}

// PageKey builds the cache key for a translation at its mapping's native
// granule. The page-size class is folded into the tag's high bits so 4 KB
// and 2 MB mappings never alias.
func PageKey(sid mem.SID, iova uint64, pageShift uint8) tlb.Key {
	return tlb.Key{SID: uint32(sid), Tag: iova>>pageShift | uint64(pageShift)<<56}
}

func granuleKey(sid mem.SID, iova uint64, shift uint) tlb.Key {
	return tlb.Key{SID: uint32(sid), Tag: iova >> shift}
}

// Translate resolves one gIOVA for sid. pageShift is the native page size
// of the mapping (the device learns it from the descriptor format; the
// model carries it in the trace). recordHistory controls whether the
// access updates the per-DID IOVA history (demand accesses do, prefetch
// reads must not).
func (u *IOMMU) Translate(sid mem.SID, iova uint64, pageShift uint8, recordHistory bool) (Result, error) {
	var res Result
	u.translations.Inc()

	// Context lookup: SID -> page-table roots.
	ccKey := tlb.Key{SID: uint32(sid)}
	if _, ok := u.cc.Lookup(ccKey); ok {
		res.CCHit = true
	} else {
		if _, err := u.ctxTable.Lookup(sid); err != nil {
			return res, err
		}
		res.MemAccesses += mem.ContextReadAccesses
		u.cc.Insert(tlb.Entry{Key: ccKey})
	}

	nt := u.tenants.Get(sid)
	if nt == nil {
		return res, fmt.Errorf("iommu: no nested table for SID %d", sid)
	}

	if recordHistory {
		u.history.Record(sid, iova, pageShift)
	}

	// Chipset IOTLB (optional).
	iotlbKey := PageKey(sid, iova, pageShift)
	if u.iotlb != nil {
		if e, ok := u.iotlb.Lookup(iotlbKey); ok {
			res.IOTLBHit = true
			res.HPA = e.Value | iova&(uint64(1)<<pageShift-1)
			u.memAccesses.Add(uint64(res.MemAccesses))
			return res, nil
		}
	}

	// Page-walk caches: resume the two-dimensional walk as deep as
	// possible. The L2 granule only caches a resume point for 4 KB
	// mappings (for 2 MB pages the L2-granule object is the final
	// translation itself, which lives in the IOTLB/DevTLB). The PWC
	// lookups run before the memoization check because they mutate
	// replacement state — a memoized translation must touch the cache
	// model exactly as the real walk would.
	u.walks.Inc()
	startLevel := 0 // 0 = full walk
	switch {
	case pageShift == mem.PageShift && u.l2pwcHit(sid, iova):
		res.PWCLevel = 2
		startLevel = 1
	case u.l3pwcHit(sid, iova):
		res.PWCLevel = 3
		startLevel = 2
	}

	// Every walk resolves through a memo entry: an epoch-valid stored
	// one proves the tenant's tables are unchanged since its walk, and a
	// miss derives one from a silent full walk (storing it when the walk
	// succeeds). Either way the modeled walk is replayed from the entry —
	// exactly the accesses of the chosen resume depth are charged, and
	// the caches install from its table addresses — so the simulated
	// tables are read once per miss and never re-walked for installs.
	ent := u.memo.lookup(sid, iova>>mem.PageShift, nt)
	var walkErr error
	if ent == nil {
		walk, err := nt.SilentWalkInto(iova, u.walkBuf[:0])
		u.walkBuf = walk.Accesses[:0]
		ent = &u.derived
		ent.derive(iova, walk.Accesses, walk.HPA)
		if err != nil {
			walkErr = fmt.Errorf("iommu: walking %#x for SID %d: %w", iova, sid, err)
		} else {
			u.memo.store(sid, iova, nt, ent)
		}
	}
	n, ok := ent.resume(startLevel)
	if !ok {
		if walkErr != nil {
			return res, walkErr
		}
		return res, fmt.Errorf("iommu: no level-%d table for %#x (SID %d)", startLevel, iova, sid)
	}
	nt.ReplayReads(n)
	if walkErr != nil {
		return res, walkErr
	}
	res.MemAccesses += n
	res.HPA = ent.hpa4k | iova&(mem.PageSize-1)
	u.memAccesses.Add(uint64(res.MemAccesses))
	u.install(sid, iova, pageShift, iotlbKey, ent)
	return res, nil
}

// install fills the IOTLB and the page-walk caches after a walk, taking
// the resume-table addresses from the walk's memo entry: tbl2OK/tbl1OK
// hold precisely when the walk has a guest L2/L1 table to resume from.
func (u *IOMMU) install(sid mem.SID, iova uint64, pageShift uint8, iotlbKey tlb.Key, ent *memoEntry) {
	if u.iotlb != nil {
		pageMask := uint64(1)<<pageShift - 1
		u.iotlb.Insert(tlb.Entry{Key: iotlbKey, Value: ent.hpa4k &^ pageMask, PageShift: pageShift})
	}
	if ent.tbl2OK {
		u.l3pwc.Insert(tlb.Entry{Key: granuleKey(sid, iova, mem.GiantPageShift), Value: uint64(ent.tbl2)})
	}
	if pageShift == mem.PageShift && ent.tbl1OK {
		u.l2pwc.Insert(tlb.Entry{Key: granuleKey(sid, iova, mem.HugePageShift), Value: uint64(ent.tbl1)})
	}
}

func (u *IOMMU) l2pwcHit(sid mem.SID, iova uint64) bool {
	_, ok := u.l2pwc.Lookup(granuleKey(sid, iova, mem.HugePageShift))
	return ok
}

func (u *IOMMU) l3pwcHit(sid mem.SID, iova uint64) bool {
	_, ok := u.l3pwc.Lookup(granuleKey(sid, iova, mem.GiantPageShift))
	return ok
}

// Invalidate drops cached state for one unmapped page (driver unmap →
// IOTLB invalidation command). Page-walk-cache entries for the covering
// granules are dropped too, conservatively.
func (u *IOMMU) Invalidate(sid mem.SID, iova uint64, pageShift uint8) {
	if u.iotlb != nil {
		u.iotlb.Invalidate(PageKey(sid, iova, pageShift))
	}
	if pageShift == mem.PageShift {
		u.l2pwc.Invalidate(granuleKey(sid, iova, mem.HugePageShift))
	}
	u.memo.bumpSID(sid)
	u.history.Drop(sid, iova, pageShift)
}

// InvalidateSID drops every chipset-cached structure belonging to one
// tenant — the domain-wide invalidation a hypervisor issues at tenant
// teardown (context-cache entry, IOTLB and walk-cache entries, and the
// per-DID IOVA history). It returns how many cache entries were dropped.
func (u *IOMMU) InvalidateSID(sid mem.SID) int {
	n := u.cc.InvalidateSID(uint32(sid))
	if u.iotlb != nil {
		n += u.iotlb.InvalidateSID(uint32(sid))
	}
	n += u.l2pwc.InvalidateSID(uint32(sid))
	n += u.l3pwc.InvalidateSID(uint32(sid))
	u.memo.bumpSID(sid)
	u.history.DropSID(sid)
	return n
}

// FlushAll empties every chipset cache (a global invalidation command)
// and returns how many entries were dropped. Histories survive — they
// live in main memory, not in chipset state.
func (u *IOMMU) FlushAll() int {
	n := u.cc.Flush()
	if u.iotlb != nil {
		n += u.iotlb.Flush()
	}
	n += u.l2pwc.Flush()
	n += u.l3pwc.Flush()
	u.memo.bumpGlobal()
	return n
}

// History returns the per-DID IOVA history store.
func (u *IOMMU) History() *History { return u.history }

// Stats bundles the IOMMU counters for reporting.
type Stats struct {
	Translations uint64
	Walks        uint64
	MemAccesses  uint64
	ContextCache tlb.Stats
	IOTLB        tlb.Stats
	L2PWC        tlb.Stats
	L3PWC        tlb.Stats
}

// Stats returns a snapshot of the counters.
func (u *IOMMU) Stats() Stats {
	s := Stats{
		Translations: u.translations.Value(),
		Walks:        u.walks.Value(),
		MemAccesses:  u.memAccesses.Value(),
		ContextCache: u.cc.Stats(),
		L2PWC:        u.l2pwc.Stats(),
		L3PWC:        u.l3pwc.Stats(),
	}
	if u.iotlb != nil {
		s.IOTLB = u.iotlb.Stats()
	}
	return s
}

// Register publishes the chipset's counters and every cache's traffic
// into a metrics registry under prefix.
func (u *IOMMU) Register(r *obs.Registry, prefix string) {
	r.Counter(prefix+".translations", &u.translations)
	r.Counter(prefix+".walks", &u.walks)
	r.Counter(prefix+".mem_accesses", &u.memAccesses)
	u.cc.Register(r, prefix+".cc")
	if u.iotlb != nil {
		u.iotlb.Register(r, prefix+".iotlb")
	}
	u.l2pwc.Register(r, prefix+".l2pwc")
	u.l3pwc.Register(r, prefix+".l3pwc")
}
