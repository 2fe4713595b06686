package iommu

import (
	"hypertrio/internal/mem"
)

// DefaultMemoEntries is the walk-memoization capacity used when
// Config.MemoEntries is zero: 16 K direct-mapped entries, ~1.5 MB of
// fixed storage per chipset.
const DefaultMemoEntries = 1 << 14

// memoEntry is one cached nested-walk outcome for a (SID, gIOVA 4 KB
// page) pair. The entry stores everything a replay needs — the 4 KB-
// granular host translation, the access counts of the full walk and of
// the two page-walk-cache resume points, and the host addresses of the
// guest L1/L2 tables that the page-walk-cache installs record. Validity is epoch-checked, never scanned: a stored
// snapshot of the tenant's table epoch, the per-SID invalidation epoch
// and the global flush epoch must all still match.
//
// Fields are ordered so the struct packs into 64 bytes, one cache line:
// a lookup is one memory access into a table far larger than L1.
type memoEntry struct {
	sid      mem.SID
	sidEpoch uint32
	page     uint64 // gIOVA >> mem.PageShift

	tableEpoch uint64
	hpa4k      uint64 // host translation of the key's 4 KB page (low 12 bits clear)
	tbl1, tbl2 mem.Addr

	globalEpoch uint32
	total       uint16 // accesses of the full two-dimensional walk
	suf1        uint16 // accesses when resuming at guest L1 (L2-PWC hit)
	suf2        uint16 // accesses when resuming at guest L2 (L3-PWC hit)
	tbl1OK      bool
	tbl2OK      bool
	valid       bool
}

// walkMemo is the epoch-validated walk-memoization table: direct-mapped
// over a power-of-two entry array, so lookup, fill and eviction are a
// hash, a compare and a struct write — no map, no lists, no allocation
// after construction. Collisions simply overwrite (the displaced walk
// recomputes on its next miss), which keeps behaviour deterministic and
// memory exactly bounded.
//
// Invalidation is O(1) regardless of how many entries a command covers:
// page and tenant invalidations bump the tenant's epoch counter, global
// flushes bump the global epoch, and table mutations advance the
// tenant's NestedTable epoch — stale entries then fail their epoch
// compare on next touch instead of being searched for eagerly.
type walkMemo struct {
	entries []memoEntry
	mask    uint64

	sidEp    []uint32 // per-SID invalidation epochs, dense, grown on demand
	globalEp uint32

	hits, misses, fills uint64
}

// newWalkMemo sizes the table from the config knob: 0 means
// DefaultMemoEntries, negative disables memoization entirely (nil memo),
// anything else rounds up to a power of two.
func newWalkMemo(entries int) *walkMemo {
	if entries < 0 {
		return nil
	}
	if entries == 0 {
		entries = DefaultMemoEntries
	}
	n := 1
	for n < entries {
		n <<= 1
	}
	return &walkMemo{entries: make([]memoEntry, n), mask: uint64(n - 1)}
}

// memoHash mixes (sid, page) into a table index (splitmix64 finalizer).
func memoHash(sid mem.SID, page uint64) uint64 {
	x := page*0x9E3779B97F4A7C15 ^ uint64(sid)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func (m *walkMemo) sidEpoch(sid mem.SID) uint32 {
	if int(sid) < len(m.sidEp) {
		return m.sidEp[sid]
	}
	return 0
}

// bumpSID advances one tenant's invalidation epoch, logically dropping
// every memoized walk for that SID in O(1).
func (m *walkMemo) bumpSID(sid mem.SID) {
	if m == nil {
		return
	}
	for int(sid) >= len(m.sidEp) {
		m.sidEp = append(m.sidEp, 0)
	}
	m.sidEp[sid]++
}

// bumpGlobal logically drops every memoized walk (global flush).
func (m *walkMemo) bumpGlobal() {
	if m == nil {
		return
	}
	m.globalEp++
}

// lookup returns the live entry for (sid, page), revalidating its epochs
// against the tenant's current table state, or nil on a miss. A stale
// entry is marked invalid so the slot refills.
func (m *walkMemo) lookup(sid mem.SID, page uint64, nt *mem.NestedTable) *memoEntry {
	if m == nil {
		return nil
	}
	ent := &m.entries[memoHash(sid, page)&m.mask]
	if !ent.valid || ent.sid != sid || ent.page != page {
		m.misses++
		return nil
	}
	if ent.tableEpoch != nt.Epoch() || ent.sidEpoch != m.sidEpoch(sid) || ent.globalEpoch != m.globalEp {
		ent.valid = false
		m.misses++
		return nil
	}
	m.hits++
	return ent
}

// derive builds the replay data of one nested walk from its access
// vector: the GuestEntry read at guest level L happens at (level-L table
// base) + index(iova, L)*8, and a page-walk-cache resume from level L
// performs exactly the vector's suffix from that read — so one walk
// yields the full-walk count, both resume counts and both install
// addresses without any extra table traffic. A failed walk derives the
// same fields for the prefix it completed; tbl1OK/tbl2OK stay false for
// a level the walk never read.
func (ent *memoEntry) derive(iova uint64, accesses []mem.NestedAccess, hpa uint64) {
	*ent = memoEntry{hpa4k: hpa &^ (mem.PageSize - 1), total: uint16(len(accesses))}
	for i := range accesses {
		a := &accesses[i]
		if a.Kind != mem.GuestEntry {
			continue
		}
		switch a.GuestLevel {
		case 2:
			idx2 := (iova >> (mem.PageShift + 9)) & (mem.EntriesPerTable - 1)
			ent.tbl2 = a.HostAddr - mem.Addr(idx2*8)
			ent.tbl2OK = true
			ent.suf2 = uint16(len(accesses) - i)
		case 1:
			idx1 := (iova >> mem.PageShift) & (mem.EntriesPerTable - 1)
			ent.tbl1 = a.HostAddr - mem.Addr(idx1*8)
			ent.tbl1OK = true
			ent.suf1 = uint16(len(accesses) - i)
		}
	}
}

// resume returns how many accesses a walk resuming at startLevel (0 for
// a full walk) performs, and false when the walk has no guest table at
// that level (the page is mapped by a larger leaf above it).
func (ent *memoEntry) resume(startLevel int) (int, bool) {
	switch startLevel {
	case 1:
		return int(ent.suf1), ent.tbl1OK
	case 2:
		return int(ent.suf2), ent.tbl2OK
	}
	return int(ent.total), true
}

// store memoizes a successful walk's derived entry for (sid, iova's 4 KB
// page) under the tenant's current epochs, overwriting the slot.
func (m *walkMemo) store(sid mem.SID, iova uint64, nt *mem.NestedTable, ent *memoEntry) {
	if m == nil {
		return
	}
	slot := &m.entries[memoHash(sid, iova>>mem.PageShift)&m.mask]
	m.fills++
	*slot = *ent
	slot.sid = sid
	slot.page = iova >> mem.PageShift
	slot.tableEpoch = nt.Epoch()
	slot.sidEpoch = m.sidEpoch(sid)
	slot.globalEpoch = m.globalEp
	slot.valid = true
}

// MemoStats reports the walk-memoization counters. They are intentionally
// not part of Stats or the obs registry: memoization is outcome-invisible
// by contract, so its bookkeeping must not alter any reported schema.
type MemoStats struct {
	Enabled bool
	Entries int
	Hits    uint64
	Misses  uint64
	Fills   uint64
}

// MemoStats returns a snapshot of the walk-memoization counters.
func (u *IOMMU) MemoStats() MemoStats {
	if u.memo == nil {
		return MemoStats{}
	}
	return MemoStats{
		Enabled: true,
		Entries: len(u.memo.entries),
		Hits:    u.memo.hits,
		Misses:  u.memo.misses,
		Fills:   u.memo.fills,
	}
}
