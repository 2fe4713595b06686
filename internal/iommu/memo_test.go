package iommu

import (
	"math/rand"
	"testing"
	"unsafe"

	"hypertrio/internal/mem"
	"hypertrio/internal/workload"
)

// buildSharedTenants builds nTables tenant address spaces (SIDs
// 1..nTables) and registers SIDs nTables+1..nSIDs on those same tables
// round-robin, the way core registers one template table per ring-slot
// class for every tenant of the class. It returns one address space per
// SID (index sid-1); an aliasing SID's entry is its table's layout under
// its own SID.
func buildSharedTenants(t *testing.T, nTables, nSIDs int, kind workload.Kind) (*mem.ContextTable, *mem.TenantTables, []*workload.AddressSpace) {
	t.Helper()
	ct, tenants, spaces := buildTenants(t, nTables, kind)
	for i := nTables + 1; i <= nSIDs; i++ {
		as := *spaces[(i-1)%nTables]
		as.SID = mem.SID(i)
		tenants.Set(as.SID, as.Nested)
		ct.Set(as.SID, mem.ContextEntry{DID: uint32(as.SID), GuestRoot: as.Nested.GuestRoot(), HostRoot: as.Nested.HostRoot()})
		spaces = append(spaces, &as)
	}
	return ct, tenants, spaces
}

// driveMemoDifferential builds two identical worlds — one IOMMU with
// walk memoization of the given size, one with it disabled — and
// drives both through the same randomized interleaving of translations,
// mid-flight remaps, page/tenant invalidations, driver unmaps and global
// flushes. Every translation must return an identical Result (HPA,
// hit flags, PWC level, access count), identical error disposition and
// an identical number of host-memory reads, and the final Stats must
// match field for field: memoization is an engine optimization, not a
// modeled structure, so it may never change a single observable number.
//
// Half the SIDs alias another SID's NestedTable, as core's template
// tables do, so memo entries filled by one SID are replayed for another
// and a table mutation through one SID must be seen by all of them.
//
// A third, IOMMU-less world is the reference for the walk itself: every
// translation that reaches the walker is recomputed there the direct way
// — WalkInto for a full walk, TableHPA + WalkFromInto for a PWC-resumed
// one — and must match in HPA, walk accesses, error disposition and
// host-memory reads. That pins the replayed suffix to the modeled walk
// and proves the silent walk behind every memo miss charges nothing.
func driveMemoDifferential(t *testing.T, iotlbSets, memoEntries int, seed int64) {
	t.Helper()
	const nTables, nSIDs = 3, 6

	ctM, tenantsM, spacesM := buildSharedTenants(t, nTables, nSIDs, workload.Mediastream)
	cfgM := testConfig(iotlbSets)
	cfgM.MemoEntries = memoEntries
	uM := New(cfgM, ctM, tenantsM)

	ctU, tenantsU, spacesU := buildSharedTenants(t, nTables, nSIDs, workload.Mediastream)
	cfgU := testConfig(iotlbSets)
	cfgU.MemoEntries = -1
	uU := New(cfgU, ctU, tenantsU)

	_, _, spacesR := buildSharedTenants(t, nTables, nSIDs, workload.Mediastream)
	hostM := spacesM[0].Nested.Host().Space()
	hostU := spacesU[0].Nested.Host().Space()
	hostR := spacesR[0].Nested.Host().Space()
	worlds := [][]*workload.AddressSpace{spacesM, spacesU, spacesR}
	var resumed, fullWalks, crossHits int
	// translated records the (SID, 4 KB page) pairs each SID has walked;
	// a memo hit on a pair's first walk replays another SID's fill.
	translated := map[[2]uint64]bool{}

	rng := rand.New(rand.NewSource(seed))

	// pick returns the same (iova, shift) against both worlds' layouts;
	// the builds are deterministic, so the layouts agree.
	pick := func(as *workload.AddressSpace) (uint64, uint8) {
		switch rng.Intn(4) {
		case 0:
			return as.Ring + uint64(rng.Intn(mem.PageSize)), mem.PageShift
		case 1:
			return as.Mailbox + uint64(rng.Intn(mem.PageSize)), mem.PageShift
		case 2:
			j := rng.Intn(len(as.InitPages))
			return as.InitPages[j] + uint64(rng.Intn(mem.PageSize)), mem.PageShift
		default:
			j := rng.Intn(len(as.DataPages))
			return as.DataPages[j] + uint64(rng.Intn(mem.HugePageSize)), mem.HugePageShift
		}
	}

	// reference walks iova the pre-memo way in the reference world and
	// returns its HPA, access count, error and host-memory reads.
	reference := func(sid mem.SID, iova uint64, pwcLevel int) (uint64, int, error, uint64) {
		nt := spacesR[sid-1].Nested
		before := hostR.Reads()
		var walk mem.NestedResult
		var err error
		if pwcLevel == 0 {
			walk, err = nt.WalkInto(iova, nil)
		} else {
			var tbl mem.Addr
			if tbl, err = nt.TableHPA(iova, pwcLevel-1); err == nil {
				walk, err = nt.WalkFromInto(iova, pwcLevel-1, tbl, nil)
			}
		}
		return walk.HPA, len(walk.Accesses), err, hostR.Reads() - before
	}

	translate := func(sid mem.SID, iova uint64, shift uint8, op int) {
		readsM, readsU := hostM.Reads(), hostU.Reads()
		memoBefore := uM.MemoStats()
		rM, errM := uM.Translate(sid, iova, shift, true)
		rU, errU := uU.Translate(sid, iova, shift, true)
		readsM, readsU = hostM.Reads()-readsM, hostU.Reads()-readsU
		if (errM == nil) != (errU == nil) {
			t.Fatalf("op %d: error disposition diverged: memo=%v uncached=%v", op, errM, errU)
		}
		if rM != rU {
			t.Fatalf("op %d: SID %d iova %#x: memoized %+v, uncached %+v", op, sid, iova, rM, rU)
		}
		if readsM != readsU {
			t.Fatalf("op %d: SID %d iova %#x: memoized walk read %d entries, uncached %d", op, sid, iova, readsM, readsU)
		}
		if rM.IOTLBHit {
			return // answered before the walker
		}
		pair := [2]uint64{uint64(sid), iova >> mem.PageShift}
		if !translated[pair] && uM.MemoStats().Hits > memoBefore.Hits {
			crossHits++
		}
		translated[pair] = true
		if rM.PWCLevel != 0 {
			resumed++
		} else {
			fullWalks++
		}
		hpa, n, err, reads := reference(sid, iova, rM.PWCLevel)
		walked := rM.MemAccesses
		if !rM.CCHit {
			walked -= mem.ContextReadAccesses
		}
		if (err == nil) != (errM == nil) {
			t.Fatalf("op %d: SID %d iova %#x PWC level %d: error disposition %v, reference %v", op, sid, iova, rM.PWCLevel, errM, err)
		}
		if readsM != reads {
			t.Fatalf("op %d: SID %d iova %#x PWC level %d: %d host reads, reference walk %d", op, sid, iova, rM.PWCLevel, readsM, reads)
		}
		if err == nil && (rM.HPA != hpa || walked != n) {
			t.Fatalf("op %d: SID %d iova %#x PWC level %d: HPA %#x after %d accesses, reference %#x after %d",
				op, sid, iova, rM.PWCLevel, rM.HPA, walked, hpa, n)
		}
		if err != nil && walked != 0 {
			t.Fatalf("op %d: failed walk reported %d accesses", op, walked)
		}
	}

	const ops = 4000
	for op := 0; op < ops; op++ {
		k := rng.Intn(nSIDs)
		asM, asU := spacesM[k], spacesU[k]
		switch r := rng.Intn(20); {
		case r < 14: // translate
			iova, shift := pick(asM)
			translate(asM.SID, iova, shift, op)
		case r < 16: // mid-flight remap of a data page onto a fresh frame
			j := rng.Intn(len(asM.DataPages))
			iova := asM.DataPages[j]
			for _, w := range worlds {
				if _, _, err := w[k].Nested.MapIOVA(iova, mem.HugePageShift); err != nil {
					t.Fatal(err)
				}
			}
			// Half the remaps close the stale window immediately; the other
			// half leave the chipset serving the old frame until the next
			// invalidation — identically on both sides.
			if rng.Intn(2) == 0 {
				uM.Invalidate(asM.SID, iova, mem.HugePageShift)
				uU.Invalidate(asU.SID, iova, mem.HugePageShift)
			}
			translate(asM.SID, iova+uint64(rng.Intn(mem.HugePageSize)), mem.HugePageShift, op)
		case r < 17: // driver unmap + invalidation, then remap the page back
			j := rng.Intn(len(asM.InitPages))
			iova := asM.InitPages[j]
			for _, w := range worlds {
				if _, err := w[k].Nested.UnmapIOVA(iova, mem.PageShift); err != nil {
					t.Fatal(err)
				}
			}
			uM.Invalidate(asM.SID, iova, mem.PageShift)
			uU.Invalidate(asU.SID, iova, mem.PageShift)
			// The unmapped page must fail (or stale-hit) identically.
			translate(asM.SID, iova, mem.PageShift, op)
			for _, w := range worlds {
				if _, _, err := w[k].Nested.MapIOVA(iova, mem.PageShift); err != nil {
					t.Fatal(err)
				}
			}
			translate(asM.SID, iova, mem.PageShift, op)
		case r < 19: // tenant teardown
			nM := uM.InvalidateSID(asM.SID)
			nU := uU.InvalidateSID(asU.SID)
			if nM != nU {
				t.Fatalf("op %d: InvalidateSID dropped %d vs %d entries", op, nM, nU)
			}
		default: // global flush
			nM := uM.FlushAll()
			nU := uU.FlushAll()
			if nM != nU {
				t.Fatalf("op %d: FlushAll dropped %d vs %d entries", op, nM, nU)
			}
		}
	}

	if sM, sU := uM.Stats(), uU.Stats(); sM != sU {
		t.Fatalf("final stats diverged:\nmemoized: %+v\nuncached: %+v", sM, sU)
	}
	if hostM.Reads() != hostU.Reads() {
		t.Fatalf("host reads diverged: memoized %d, uncached %d", hostM.Reads(), hostU.Reads())
	}
	if resumed == 0 || fullWalks == 0 {
		t.Fatalf("run checked %d resumed and %d full walks; want both", resumed, fullWalks)
	}
	ms := uM.MemoStats()
	if !ms.Enabled || ms.Fills == 0 {
		t.Fatalf("memoized run never exercised the memo: %+v", ms)
	}
	if ms.Hits == 0 || crossHits == 0 {
		// Every repeat walk of an unmutated table page is a memo hit,
		// whichever SID walks it and whatever invalidations came between,
		// and the aliasing SIDs walk pages their table-mates filled.
		t.Fatalf("memoized run saw %d cross-SID hits: %+v", crossHits, ms)
	}
	if uU.MemoStats().Enabled {
		t.Fatal("MemoEntries=-1 did not disable memoization")
	}
}

// TestMemoMatchesUncachedUnderMutation: no IOTLB in front, so every
// translation reaches the walk path and the memo is consulted (and must
// revalidate) on each one.
func TestMemoMatchesUncachedUnderMutation(t *testing.T) {
	driveMemoDifferential(t, 0, 0, 1)
}

// TestMemoMatchesUncachedWithIOTLB: with an IOTLB in front the memo only
// sees that cache's misses, and invalidations must keep all three layers
// (IOTLB, PWCs, memo) mutually coherent.
func TestMemoMatchesUncachedWithIOTLB(t *testing.T) {
	driveMemoDifferential(t, 8, 0, 2)
}

// TestMemoMatchesUncachedTinyMemo: a 4-entry memo makes every slot a
// collision between tables and pages, so a replay is only right if the
// exact (table, page) tag rejects the other keys' entries.
func TestMemoMatchesUncachedTinyMemo(t *testing.T) {
	driveMemoDifferential(t, 0, 4, 3)
}

// TestMemoEpochInvalidation pins the memo's one validity channel, the
// table epoch: SIDs sharing a NestedTable share its entries, a mutation
// of the table misses for every SID on it, an unrelated table's mutation
// misses for none, and cache-invalidation commands (page, tenant,
// global) leave entries valid while the next translation still charges
// the walk that the emptied caches imply.
func TestMemoEpochInvalidation(t *testing.T) {
	// SIDs 1 and 3 share table A, SID 2 owns table B.
	ct, tenants, spaces := buildSharedTenants(t, 2, 3, workload.Mediastream)
	u := New(testConfig(0), ct, tenants) // no IOTLB: every translate consults the memo
	a1, b, a2 := spaces[0], spaces[1], spaces[2]
	if a1.Nested != a2.Nested || a1.Nested == b.Nested {
		t.Fatal("test setup: SIDs 1 and 3 must share a table, SID 2 must not")
	}

	// expect translates as's ring page, requires a memo hit or miss, and
	// returns the result.
	expect := func(as *workload.AddressSpace, what string, hit bool) Result {
		t.Helper()
		before := u.MemoStats()
		res, err := u.Translate(as.SID, as.Ring, mem.PageShift, true)
		if err != nil {
			t.Fatal(err)
		}
		after := u.MemoStats()
		if hit && after.Hits != before.Hits+1 {
			t.Fatalf("%s: expected a memo hit: %+v -> %+v", what, before, after)
		}
		if !hit && after.Misses != before.Misses+1 {
			t.Fatalf("%s: expected a memo miss: %+v -> %+v", what, before, after)
		}
		return res
	}
	// walkCost is the reference length of the ring walk at a PWC level.
	walkCost := func(as *workload.AddressSpace, pwcLevel int) int {
		t.Helper()
		var walk mem.NestedResult
		var err error
		if pwcLevel == 0 {
			walk, err = as.Nested.WalkInto(as.Ring, nil)
		} else {
			var tbl mem.Addr
			if tbl, err = as.Nested.TableHPA(as.Ring, pwcLevel-1); err == nil {
				walk, err = as.Nested.WalkFromInto(as.Ring, pwcLevel-1, tbl, nil)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return len(walk.Accesses)
	}

	cold := expect(a1, "first walk", false)
	expect(a1, "steady state", true)

	// A second SID on the same table replays the first SID's entry, yet
	// pays its own cold context read and full walk: its PWC granules
	// are keyed by SID and still empty.
	if got := expect(a2, "second SID on the shared table", true); got != cold {
		t.Fatalf("second SID's first walk = %+v, first SID's = %+v", got, cold)
	}
	expect(b, "other table's first walk", false)

	// A PWC-resumed walk of a fresh page fills the memo too: the ring
	// walk installed the walk caches for its granules, so the mailbox
	// page resumes from one, misses the memo, and fills it from a silent
	// full walk; its next translation replays from the memo.
	before := u.MemoStats()
	res, err := u.Translate(a1.SID, a1.Mailbox, mem.PageShift, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.PWCLevel == 0 {
		t.Fatalf("mailbox walk did not resume from a page-walk cache: %+v", res)
	}
	if after := u.MemoStats(); after.Misses != before.Misses+1 || after.Fills != before.Fills+1 {
		t.Fatalf("resumed walk of a fresh page did not fill: %+v -> %+v", before, after)
	}
	before = u.MemoStats()
	if again, err := u.Translate(a1.SID, a1.Mailbox, mem.PageShift, true); err != nil || again != res {
		t.Fatalf("memoized resumed walk = %+v, %v; first walk %+v", again, err, res)
	}
	if after := u.MemoStats(); after.Hits != before.Hits+1 {
		t.Fatalf("resumed walk's memo entry did not hit: %+v -> %+v", before, after)
	}

	// Invalidation commands empty caches, not the memo. Each next walk
	// hits the memo and charges exactly what the surviving caches imply.
	u.Invalidate(a1.SID, a1.Ring, mem.PageShift) // drops the ring's L2-PWC granule
	if r := expect(a1, "after Invalidate", true); r.PWCLevel != 3 || r.MemAccesses != walkCost(a1, 3) {
		t.Fatalf("after Invalidate: %+v, want an L3-resumed walk of %d accesses", r, walkCost(a1, 3))
	}
	u.InvalidateSID(a1.SID)
	full := mem.ContextReadAccesses + walkCost(a1, 0)
	if r := expect(a1, "after InvalidateSID", true); r.CCHit || r.PWCLevel != 0 || r.MemAccesses != full {
		t.Fatalf("after InvalidateSID: %+v, want a cold full walk of %d accesses", r, full)
	}
	u.FlushAll()
	for _, as := range []*workload.AddressSpace{a1, a2, b} {
		if r := expect(as, "after FlushAll", true); r.CCHit || r.PWCLevel != 0 || r.MemAccesses != full {
			t.Fatalf("SID %d after FlushAll: %+v, want a cold full walk of %d accesses", as.SID, r, full)
		}
	}

	// A mutation anywhere in table A (a map of an otherwise-unused gIOVA
	// region) advances its epoch: the next walk through it misses for
	// either SID on it, while table B's entry stays live.
	for _, as := range []*workload.AddressSpace{a1, a2} {
		if _, _, err := as.Nested.MapIOVA(0x1000_0000+uint64(as.SID)<<mem.HugePageShift, mem.PageShift); err != nil {
			t.Fatal(err)
		}
		expect(as, "shared table mutation", false)
	}
	expect(b, "other table's entry after table A's mutation", true)
	expect(a2, "refilled shared entry", true)
}

// TestMemoTagsTablePointer: two tables built from one layout have equal
// epochs and equal pages, so only the table pointer tells their entries
// apart — in a one-entry memo, where every key shares the slot.
func TestMemoTagsTablePointer(t *testing.T) {
	host := mem.NewSpace("host", 0x1_0000_0000, 0)
	var tables [2]*workload.AddressSpace
	for i := range tables {
		as, err := workload.BuildAddressSpace(workload.ProfileFor(workload.Mediastream), 1, host, nil)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = as
	}
	a, b := tables[0].Nested, tables[1].Nested
	if a.Epoch() != b.Epoch() {
		t.Fatalf("test setup: epochs %d and %d differ", a.Epoch(), b.Epoch())
	}
	iova := tables[0].Ring
	walk, err := a.WalkInto(iova, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := newWalkMemo(1)
	var ent memoEntry
	ent.derive(iova, walk.Accesses, walk.HPA)
	m.store(a, iova, &ent)
	if got := m.lookup(b, iova>>mem.PageShift); got != nil {
		t.Fatalf("table B replayed table A's entry: %+v", *got)
	}
	if got := m.lookup(a, iova>>mem.PageShift); got == nil || got.hpa4k != walk.HPA&^(mem.PageSize-1) {
		t.Fatalf("table A's own entry = %v, want its walk to %#x", got, walk.HPA)
	}
}

// TestMemoEntryFitsCacheLine pins the entry layout at 64 bytes: the memo
// table is far larger than L1, so a lookup should cost one cache line.
func TestMemoEntryFitsCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(memoEntry{}); got != 64 {
		t.Fatalf("memoEntry is %d bytes, want 64 (one cache line)", got)
	}
}
