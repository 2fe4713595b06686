package iommu

import (
	"hypertrio/internal/mem"
)

// DefaultMemoEntries is the walk-memoization capacity used when
// Config.MemoEntries is zero: 16 K direct-mapped 64-byte entries, 1 MB
// of fixed storage per chipset.
const DefaultMemoEntries = 1 << 14

// memoEntry is one cached nested-walk outcome for a (table, 4 KB page)
// pair. The entry stores everything a replay needs — the 4 KB-granular
// host translation, the access counts of the full walk and of the two
// page-walk-cache resume points, and the host addresses of the guest
// L1/L2 tables that the page-walk-cache installs record. All of it is a
// pure function of the table's contents and the page, so SIDs that share
// one NestedTable share its entries, and validity is one compare: the
// stored snapshot of the table's epoch must still match.
//
// Fields are ordered so the struct packs into 64 bytes, one cache line:
// a lookup is one memory access into a table far larger than L1.
type memoEntry struct {
	table *mem.NestedTable // exact tag; nil marks an empty slot
	page  uint64           // gIOVA >> mem.PageShift

	tableEpoch uint64
	hpa4k      uint64 // host translation of the key's 4 KB page (low 12 bits clear)
	tbl1, tbl2 mem.Addr

	total  uint16 // accesses of the full two-dimensional walk
	suf1   uint16 // accesses when resuming at guest L1 (L2-PWC hit)
	suf2   uint16 // accesses when resuming at guest L2 (L3-PWC hit)
	tbl1OK bool
	tbl2OK bool
	_      [8]byte // pad to one cache line
}

// walkMemo is the epoch-validated walk-memoization table: direct-mapped
// over a power-of-two entry array, so lookup, fill and eviction are a
// hash, a compare and a struct write — no map, no lists, no allocation
// after construction. Collisions simply overwrite (the displaced walk
// recomputes on its next miss), which keeps behaviour deterministic and
// memory exactly bounded.
//
// The only invalidation channel is the table epoch: every mutation of a
// NestedTable advances it, so stale entries fail their epoch compare on
// next touch instead of being searched for eagerly. Cache-invalidation
// commands (page, tenant, global) leave the memo alone — they change
// what the modeled caches hold, not what a walk of the table returns,
// and the caches they invalidate are what decide which walk runs.
type walkMemo struct {
	entries []memoEntry
	mask    uint64

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

// slot returns the direct-mapped entry for (nt, page). The index hashes
// the table's host root — deterministic across runs, unlike the pointer
// — with the page (splitmix64 finalizer); the pointer is the exact tag.
func (m *walkMemo) slot(nt *mem.NestedTable, page uint64) *memoEntry {
	x := page*0x9E3779B97F4A7C15 ^ uint64(nt.HostRoot())*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return &m.entries[x&m.mask]
}

// lookup returns the live entry for (nt, page), or nil on a miss: an
// empty slot, another key's entry, or an entry older than the table's
// latest mutation.
func (m *walkMemo) lookup(nt *mem.NestedTable, page uint64) *memoEntry {
	if m == nil {
		return nil
	}
	ent := m.slot(nt, page)
	if ent.table != nt || ent.page != page || ent.tableEpoch != nt.Epoch() {
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

// store memoizes a successful walk's derived entry for (nt, iova's 4 KB
// page) under the table's current epoch, overwriting the slot.
func (m *walkMemo) store(nt *mem.NestedTable, iova uint64, ent *memoEntry) {
	if m == nil {
		return
	}
	page := iova >> mem.PageShift
	slot := m.slot(nt, page)
	m.fills++
	*slot = *ent
	slot.table = nt
	slot.page = page
	slot.tableEpoch = nt.Epoch()
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
