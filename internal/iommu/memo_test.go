package iommu

import (
	"math/rand"
	"testing"
	"unsafe"

	"hypertrio/internal/mem"
	"hypertrio/internal/workload"
)

// driveMemoDifferential builds two identical worlds — one IOMMU with
// walk memoization at its default size, one with it disabled — and
// drives both through the same randomized interleaving of translations,
// mid-flight remaps, page/tenant invalidations, driver unmaps and global
// flushes. Every translation must return an identical Result (HPA,
// hit flags, PWC level, access count), identical error disposition and
// an identical number of host-memory reads, and the final Stats must
// match field for field: memoization is an engine optimization, not a
// modeled structure, so it may never change a single observable number.
//
// A third, IOMMU-less world is the reference for the walk itself: every
// translation that reaches the walker is recomputed there the direct way
// — WalkInto for a full walk, TableHPA + WalkFromInto for a PWC-resumed
// one — and must match in HPA, walk accesses, error disposition and
// host-memory reads. That pins the replayed suffix to the modeled walk
// and proves the silent walk behind every memo miss charges nothing.
func driveMemoDifferential(t *testing.T, iotlbSets int, seed int64) {
	t.Helper()
	const nTenants = 3

	ctM, tenantsM, spacesM := buildTenants(t, nTenants, workload.Mediastream)
	uM := New(testConfig(iotlbSets), ctM, tenantsM)

	ctU, tenantsU, spacesU := buildTenants(t, nTenants, workload.Mediastream)
	cfgU := testConfig(iotlbSets)
	cfgU.MemoEntries = -1
	uU := New(cfgU, ctU, tenantsU)

	_, _, spacesR := buildTenants(t, nTenants, workload.Mediastream)
	hostM := spacesM[0].Nested.Host().Space()
	hostU := spacesU[0].Nested.Host().Space()
	hostR := spacesR[0].Nested.Host().Space()
	worlds := [][]*workload.AddressSpace{spacesM, spacesU, spacesR}
	var resumed, fullWalks int

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
		k := rng.Intn(nTenants)
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
	if iotlbSets == 0 && ms.Hits == 0 {
		// Without an IOTLB every repeat translation reaches the memo, so a
		// hit-free run means the epochs never validated anything. (With an
		// IOTLB in front, repeat walks of one page mostly follow an
		// invalidation — which bumps the epoch — so hits are legitimately
		// scarce there.)
		t.Fatalf("IOTLB-less memoized run never hit the memo: %+v", ms)
	}
	if uU.MemoStats().Enabled {
		t.Fatal("MemoEntries=-1 did not disable memoization")
	}
}

// TestMemoMatchesUncachedUnderMutation: no IOTLB in front, so every
// translation reaches the walk path and the memo is consulted (and must
// revalidate) on each one.
func TestMemoMatchesUncachedUnderMutation(t *testing.T) {
	driveMemoDifferential(t, 0, 1)
}

// TestMemoMatchesUncachedWithIOTLB: with an IOTLB in front the memo only
// sees that cache's misses, and invalidations must keep all three layers
// (IOTLB, PWCs, memo) mutually coherent.
func TestMemoMatchesUncachedWithIOTLB(t *testing.T) {
	driveMemoDifferential(t, 8, 2)
}

// TestMemoEpochInvalidation pins the three invalidation channels one by
// one: a table mutation (epoch), a per-SID invalidation and a global
// flush must each kill a memoized walk, while an unrelated tenant's
// mutation must not.
func TestMemoEpochInvalidation(t *testing.T) {
	ct, tenants, spaces := buildTenants(t, 2, workload.Mediastream)
	u := New(testConfig(0), ct, tenants) // no IOTLB: every translate consults the memo
	a, b := spaces[0], spaces[1]

	warm := func(as *workload.AddressSpace) MemoStats {
		t.Helper()
		if _, err := u.Translate(as.SID, as.Ring, mem.PageShift, true); err != nil {
			t.Fatal(err)
		}
		return u.MemoStats()
	}
	// refill restores a fresh, valid memo entry for as.Ring: the flush
	// empties the PWCs, so the next translate is a full walk, which
	// misses the memo (the flush bumped the global epoch) and fills it.
	refill := func(as *workload.AddressSpace) {
		t.Helper()
		u.FlushAll()
		before := u.MemoStats()
		after := warm(as)
		if after.Fills != before.Fills+1 {
			t.Fatalf("full walk after flush did not refill: %+v -> %+v", before, after)
		}
	}
	expect := func(as *workload.AddressSpace, what string, hit bool) {
		t.Helper()
		before := u.MemoStats()
		after := warm(as)
		if hit && after.Hits != before.Hits+1 {
			t.Fatalf("%s: expected a memo hit: %+v -> %+v", what, before, after)
		}
		if !hit && after.Misses != before.Misses+1 {
			t.Fatalf("%s: expected a memo miss: %+v -> %+v", what, before, after)
		}
	}

	warm(a) // first full walk fills
	expect(a, "steady state", true)
	expect(a, "steady state", true)

	// A PWC-resumed walk of a fresh page fills the memo too: the ring
	// walk installed the walk caches for its granules, so the mailbox
	// page resumes from one, misses the memo, and fills it from a silent
	// full walk; its next translation replays from the memo.
	before := u.MemoStats()
	res, err := u.Translate(a.SID, a.Mailbox, mem.PageShift, true)
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
	if again, err := u.Translate(a.SID, a.Mailbox, mem.PageShift, true); err != nil || again != res {
		t.Fatalf("memoized resumed walk = %+v, %v; first walk %+v", again, err, res)
	}
	if after := u.MemoStats(); after.Hits != before.Hits+1 {
		t.Fatalf("resumed walk's memo entry did not hit: %+v -> %+v", before, after)
	}

	// Channel 1: a table mutation anywhere in tenant A's tables (a map of
	// an otherwise-unused gIOVA region) advances A's table epoch.
	if _, _, err := a.Nested.MapIOVA(0x1000_0000, mem.PageShift); err != nil {
		t.Fatal(err)
	}
	expect(a, "table mutation", false)

	// An unrelated tenant's mutation must NOT invalidate A's entry.
	refill(a)
	if _, _, err := b.Nested.MapIOVA(0x1000_0000, mem.PageShift); err != nil {
		t.Fatal(err)
	}
	expect(a, "unrelated tenant's mutation", true)

	// Channel 2: per-SID invalidation.
	u.InvalidateSID(a.SID)
	expect(a, "InvalidateSID", false)

	// ...which must not have touched tenant B either.
	refill(b)
	u.InvalidateSID(a.SID)
	expect(b, "other tenant's InvalidateSID", true)

	// Channel 3: a global flush kills every tenant's entries.
	refill(a)
	refill(b)
	u.FlushAll()
	expect(a, "FlushAll (tenant A)", false)
	expect(b, "FlushAll (tenant B)", false)
}

// TestMemoEntryFitsCacheLine pins the entry layout at 64 bytes: the memo
// table is far larger than L1, so a lookup should cost one cache line.
func TestMemoEntryFitsCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(memoEntry{}); got != 64 {
		t.Fatalf("memoEntry is %d bytes, want 64 (one cache line)", got)
	}
}
