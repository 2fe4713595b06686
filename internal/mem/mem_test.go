package mem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpaceAllocAlignment(t *testing.T) {
	s := NewSpace("t", 0x1000, 0)
	a := s.AllocFrame(PageShift)
	if a != 0x1000 {
		t.Fatalf("first frame at %#x, want 0x1000", uint64(a))
	}
	h := s.AllocFrame(HugePageShift)
	if uint64(h)%HugePageSize != 0 {
		t.Fatalf("huge frame %#x not 2MB aligned", uint64(h))
	}
	b := s.AllocFrame(PageShift)
	if b <= h {
		t.Fatalf("bump allocator went backwards: %#x after %#x", uint64(b), uint64(h))
	}
}

func TestSpaceLimit(t *testing.T) {
	s := NewSpace("t", 0x1000, 0x3000)
	s.AllocFrame(PageShift)
	s.AllocFrame(PageShift)
	defer func() {
		if recover() == nil {
			t.Fatal("allocation past limit did not panic")
		}
	}()
	s.AllocFrame(PageShift)
}

func TestSpaceReadWriteEntry(t *testing.T) {
	s := NewSpace("t", 0, 0)
	tb := s.AllocTable()
	if err := s.WriteEntry(tb+8*7, 0xdeadbeef000|ptePresent); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadEntry(tb + 8*7)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeef000|ptePresent {
		t.Fatalf("read %#x", v)
	}
	if _, err := s.ReadEntry(0x999000); err == nil {
		t.Fatal("read of unregistered table page should fail")
	}
	if s.Reads() != 1 || s.Writes() != 1 {
		t.Fatalf("stats reads=%d writes=%d, want 1/1", s.Reads(), s.Writes())
	}
}

func TestPageTableMapWalk4K(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTable(s)
	if err := pt.Map(0x7f0000123000, 0xabc000, PageShift); err != nil {
		t.Fatal(err)
	}
	res, err := pt.Walk(0x7f0000123abc)
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != 0xabcabc {
		t.Fatalf("PA = %#x, want 0xabcabc", res.PA)
	}
	if res.PageShift != PageShift {
		t.Fatalf("PageShift = %d, want %d", res.PageShift, PageShift)
	}
	if len(res.Accesses) != 4 {
		t.Fatalf("4K walk made %d accesses, want 4", len(res.Accesses))
	}
	for i, a := range res.Accesses {
		if a.Level != 4-i {
			t.Fatalf("access %d at level %d, want %d", i, a.Level, 4-i)
		}
	}
}

func TestPageTableMapWalk2M(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTable(s)
	if err := pt.Map(0xbbe00000, 0x40000000, HugePageShift); err != nil {
		t.Fatal(err)
	}
	res, err := pt.Walk(0xbbe12345)
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != 0x40012345 {
		t.Fatalf("PA = %#x, want 0x40012345", res.PA)
	}
	if res.PageShift != HugePageShift {
		t.Fatalf("PageShift = %d, want %d", res.PageShift, HugePageShift)
	}
	if len(res.Accesses) != 3 {
		t.Fatalf("2M walk made %d accesses, want 3", len(res.Accesses))
	}
}

func TestPageTableNotMapped(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTable(s)
	_, err := pt.Walk(0x1234000)
	var nm *NotMappedError
	if !errors.As(err, &nm) {
		t.Fatalf("err = %v, want NotMappedError", err)
	}
	if nm.Level != 4 {
		t.Fatalf("miss at level %d, want 4 (empty table)", nm.Level)
	}
}

func TestPageTableMisalignedMap(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTable(s)
	if err := pt.Map(0x1001, 0x2000, PageShift); err == nil {
		t.Fatal("misaligned va accepted")
	}
	if err := pt.Map(0x1000, 0x2001, PageShift); err == nil {
		t.Fatal("misaligned pa accepted")
	}
	if err := pt.Map(0x1000, 0x2000, 13); err == nil {
		t.Fatal("bogus page shift accepted")
	}
}

func TestPageTableHugeConflict(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTable(s)
	if err := pt.Map(0x40000000, 0x1000, PageShift); err != nil {
		t.Fatal(err)
	}
	// A fine mapping exists under this 2MB region; huge map must not
	// silently clobber the subtree.
	if err := pt.Map(0x40000000, 0x200000, HugePageShift); err != nil {
		t.Fatalf("huge map over table: %v", err)
	}
	// Walking now hits the huge leaf.
	res, err := pt.Walk(0x40000123)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageShift != HugePageShift {
		t.Fatalf("PageShift = %d, want huge", res.PageShift)
	}
	// But mapping 4K under an existing huge leaf errors.
	if err := pt.Map(0x40001000, 0x9000, PageShift); err == nil {
		t.Fatal("4K map under huge leaf accepted")
	}
}

// Property: random (va, pa) mappings round-trip through Walk.
func TestPropertyMapWalkRoundTrip(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTable(s)
	mapped := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		va := uint64(rng.Int63n(1<<47)) &^ (PageSize - 1)
		if _, dup := mapped[va]; dup {
			continue
		}
		pa := uint64(rng.Int63n(1<<40)) &^ (PageSize - 1)
		if err := pt.Map(va, pa, PageShift); err != nil {
			t.Fatal(err)
		}
		mapped[va] = pa
	}
	for va, pa := range mapped {
		off := uint64(rng.Intn(PageSize))
		res, err := pt.Walk(va | off)
		if err != nil {
			t.Fatalf("walk %#x: %v", va, err)
		}
		if res.PA != pa|off {
			t.Fatalf("walk %#x = %#x, want %#x", va|off, res.PA, pa|off)
		}
	}
}

func newTestNested(t *testing.T) (*NestedTable, *Space) {
	t.Helper()
	host := NewSpace("host", 0x100000000, 0)
	nt, err := NewNestedTable("tenant0", 0x40000000, host)
	if err != nil {
		t.Fatal(err)
	}
	return nt, host
}

func TestNestedWalk4KAccessCount(t *testing.T) {
	nt, _ := newTestNested(t)
	if _, _, err := nt.MapIOVA(0x34800000, PageShift); err != nil {
		t.Fatal(err)
	}
	res, err := nt.Walk(0x34800040)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's count for a 4KB two-dimensional 4-level walk: 24.
	if len(res.Accesses) != 24 {
		t.Fatalf("nested 4K walk made %d accesses, want 24", len(res.Accesses))
	}
	guestReads := 0
	for _, a := range res.Accesses {
		if a.Kind == GuestEntry {
			guestReads++
		}
	}
	if guestReads != 4 {
		t.Fatalf("guest entry reads = %d, want 4", guestReads)
	}
}

func TestNestedWalk2MAccessCount(t *testing.T) {
	nt, _ := newTestNested(t)
	if _, _, err := nt.MapIOVA(0xbbe00000, HugePageShift); err != nil {
		t.Fatal(err)
	}
	res, err := nt.Walk(0xbbe54321)
	if err != nil {
		t.Fatal(err)
	}
	// Root resolution host walk (4) + 3 guest levels x (1 guest read +
	// 4 host accesses for the next table, except the final data page is
	// a 2 MB host mapping: 3 accesses) = 4 + 5 + 5 + 1 + 3 = 18.
	if len(res.Accesses) != 18 {
		t.Fatalf("nested 2M walk made %d accesses, want 18", len(res.Accesses))
	}
	if res.PageShift != HugePageShift {
		t.Fatalf("PageShift = %d, want %d", res.PageShift, HugePageShift)
	}
}

func TestNestedWalkTranslation(t *testing.T) {
	nt, _ := newTestNested(t)
	gpa, hpa, err := nt.MapIOVA(0xbbe00000, HugePageShift)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nt.Walk(0xbbe00000 + 0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if res.GPA != uint64(gpa)+0x1234 {
		t.Fatalf("GPA = %#x, want %#x", res.GPA, uint64(gpa)+0x1234)
	}
	if res.HPA != uint64(hpa)+0x1234 {
		t.Fatalf("HPA = %#x, want %#x", res.HPA, uint64(hpa)+0x1234)
	}
}

func TestNestedWalkFromPartial(t *testing.T) {
	nt, _ := newTestNested(t)
	if _, _, err := nt.MapIOVA(0x34800000, PageShift); err != nil {
		t.Fatal(err)
	}
	full, err := nt.Walk(0x34800040)
	if err != nil {
		t.Fatal(err)
	}
	// Resume from guest L2 (as after an L3 page-walk-cache hit).
	tbl, err := nt.TableHPA(0x34800040, 2)
	if err != nil {
		t.Fatal(err)
	}
	part, err := nt.WalkFrom(0x34800040, 2, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if part.HPA != full.HPA {
		t.Fatalf("partial walk HPA %#x != full walk %#x", part.HPA, full.HPA)
	}
	// Remaining accesses: gL2 read (1) + host for gL1 table (4) + gL1
	// read (1) + final host walk (4) = 10.
	if len(part.Accesses) != 10 {
		t.Fatalf("partial walk from L2 made %d accesses, want 10", len(part.Accesses))
	}
	// Resume from guest L1 (as after an L2 page-walk-cache hit).
	tbl1, err := nt.TableHPA(0x34800040, 1)
	if err != nil {
		t.Fatal(err)
	}
	part1, err := nt.WalkFrom(0x34800040, 1, tbl1)
	if err != nil {
		t.Fatal(err)
	}
	if part1.HPA != full.HPA {
		t.Fatalf("L1 partial walk HPA %#x != full %#x", part1.HPA, full.HPA)
	}
	if len(part1.Accesses) != 5 {
		t.Fatalf("partial walk from L1 made %d accesses, want 5", len(part1.Accesses))
	}
}

func TestNestedPartial2M(t *testing.T) {
	nt, _ := newTestNested(t)
	if _, _, err := nt.MapIOVA(0xbbe00000, HugePageShift); err != nil {
		t.Fatal(err)
	}
	full, err := nt.Walk(0xbbe00040)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := nt.TableHPA(0xbbe00040, 2)
	if err != nil {
		t.Fatal(err)
	}
	part, err := nt.WalkFrom(0xbbe00040, 2, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if part.HPA != full.HPA {
		t.Fatalf("partial 2M HPA %#x != full %#x", part.HPA, full.HPA)
	}
	// gL2 leaf read (1) + final host walk of a 2 MB host page (3) = 4.
	if len(part.Accesses) != 4 {
		t.Fatalf("partial 2M walk made %d accesses, want 4", len(part.Accesses))
	}
}

func TestTableHPAIsSilent(t *testing.T) {
	nt, host := newTestNested(t)
	if _, _, err := nt.MapIOVA(0x34800000, PageShift); err != nil {
		t.Fatal(err)
	}
	before := host.Reads()
	if _, err := nt.TableHPA(0x34800000, 2); err != nil {
		t.Fatal(err)
	}
	if host.Reads() != before {
		t.Fatalf("TableHPA changed read count: %d -> %d", before, host.Reads())
	}
}

// TestSilentWalkMatchesWalk: SilentWalkInto returns exactly what
// WalkInto returns, on success and on a not-mapped failure, and leaves
// the host read counter untouched either way.
func TestSilentWalkMatchesWalk(t *testing.T) {
	nt, host := newTestNested(t)
	if _, _, err := nt.MapIOVA(0x34800000, PageShift); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		iova   uint64
		mapped bool
	}{{0x34800123, true}, {0x34801000, false}} {
		iova := tc.iova
		want, wantErr := nt.WalkInto(iova, nil)
		if (wantErr == nil) != tc.mapped {
			t.Fatalf("iova %#x: walk error %v, want mapped=%v", iova, wantErr, tc.mapped)
		}
		before := host.Reads()
		got, err := nt.SilentWalkInto(iova, nil)
		if host.Reads() != before {
			t.Fatalf("iova %#x: SilentWalkInto changed read count: %d -> %d", iova, before, host.Reads())
		}
		if (err == nil) != (wantErr == nil) || got.HPA != want.HPA || len(got.Accesses) != len(want.Accesses) {
			t.Fatalf("iova %#x: silent walk %+v, %v; walk %+v, %v", iova, got, err, want, wantErr)
		}
	}
}

// Property: for random nested mappings, walk translation equals the
// allocator's record and access counts match the paper's arithmetic.
func TestPropertyNestedRoundTrip(t *testing.T) {
	host := NewSpace("host", 0x100000000, 0)
	nt, err := NewNestedTable("t", 0x40000000, host)
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		hpa   Addr
		shift uint
	}
	mapped := make(map[uint64]m)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		shift := uint(PageShift)
		if rng.Intn(2) == 0 {
			shift = HugePageShift
		}
		iova := uint64(rng.Int63n(1<<40)) &^ (uint64(1)<<shift - 1)
		conflict := false
		for prev := range mapped {
			if prev>>HugePageShift == iova>>HugePageShift {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		_, hpa, err := nt.MapIOVA(iova, shift)
		if err != nil {
			t.Fatal(err)
		}
		mapped[iova] = m{hpa, shift}
	}
	for iova, want := range mapped {
		off := uint64(rng.Int63n(1 << want.shift))
		res, err := nt.Walk(iova | off)
		if err != nil {
			t.Fatalf("walk %#x: %v", iova|off, err)
		}
		if res.HPA != uint64(want.hpa)|off {
			t.Fatalf("walk %#x = %#x, want %#x", iova|off, res.HPA, uint64(want.hpa)|off)
		}
		wantN := 24
		if want.shift == HugePageShift {
			wantN = 18
		}
		if len(res.Accesses) != wantN {
			t.Fatalf("walk %#x: %d accesses, want %d", iova, len(res.Accesses), wantN)
		}
	}
}

func TestContextTable(t *testing.T) {
	ct := NewContextTable()
	ct.Set(5, ContextEntry{DID: 1, GuestRoot: 0x1000, HostRoot: 0x2000})
	e, err := ct.Lookup(5)
	if err != nil {
		t.Fatal(err)
	}
	if e.DID != 1 || e.GuestRoot != 0x1000 || e.HostRoot != 0x2000 {
		t.Fatalf("entry = %+v", e)
	}
	if _, err := ct.Lookup(6); err == nil {
		t.Fatal("lookup of missing SID should error")
	}
	if ct.Len() != 1 {
		t.Fatalf("Len = %d", ct.Len())
	}
}

// Property (quick): levelShift/index are consistent: reassembling indices
// reproduces the original page-aligned VA.
func TestPropertyIndexDecomposition(t *testing.T) {
	f := func(raw uint64) bool {
		va := raw & (1<<48 - 1) &^ (PageSize - 1)
		var back uint64
		for level := 4; level >= 1; level-- {
			back |= index(va, level) << levelShift(level)
		}
		return back == va
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestFiveLevelWalkCounts(t *testing.T) {
	// §II-A: a two-dimensional walk costs 24 memory accesses with
	// 4-level tables and 35 with 5-level ones.
	host := NewSpace("host", 0x1_0000_0000, 0)
	nt, err := NewNestedTableLevels("t5", 0x40000000, host, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := nt.MapIOVA(0x34800000, PageShift); err != nil {
		t.Fatal(err)
	}
	res, err := nt.Walk(0x34800040)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accesses) != 35 {
		t.Fatalf("5-level nested 4K walk made %d accesses, want 35", len(res.Accesses))
	}
	// Translation correctness holds at depth 5 too.
	if res.HPA == 0 {
		t.Fatal("zero hPA")
	}
	res2, err := nt.Walk(0x34800040)
	if err != nil || res2.HPA != res.HPA {
		t.Fatalf("repeat walk diverged: %v %#x vs %#x", err, res2.HPA, res.HPA)
	}
}

func TestFiveLevelSingleDimension(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTableLevels(s, 5)
	if pt.Levels() != 5 {
		t.Fatalf("Levels = %d", pt.Levels())
	}
	// A 5-level table can map VAs beyond the 4-level 48-bit limit.
	va := uint64(1)<<52 | 0x123000
	if err := pt.Map(va, 0xabc000, PageShift); err != nil {
		t.Fatal(err)
	}
	res, err := pt.Walk(va | 0x42)
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != 0xabc042 {
		t.Fatalf("PA = %#x", res.PA)
	}
	if len(res.Accesses) != 5 {
		t.Fatalf("5-level walk made %d accesses, want 5", len(res.Accesses))
	}
}

func TestBadDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("depth 3 did not panic")
		}
	}()
	NewPageTableLevels(NewSpace("t", 0, 0), 3)
}

func TestUnmapRemap(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTable(s)
	if err := pt.Map(0x1000, 0x2000, PageShift); err != nil {
		t.Fatal(err)
	}
	ok, err := pt.Unmap(0x1000, PageShift)
	if err != nil || !ok {
		t.Fatalf("Unmap: %v %v", ok, err)
	}
	if _, err := pt.Walk(0x1000); err == nil {
		t.Fatal("walk succeeded after unmap")
	}
	// Unmapping again reports absent.
	ok, err = pt.Unmap(0x1000, PageShift)
	if err != nil || ok {
		t.Fatalf("double Unmap: %v %v", ok, err)
	}
	// Remap reuses the intermediate tables.
	tables := s.TableCount()
	if err := pt.Map(0x1000, 0x3000, PageShift); err != nil {
		t.Fatal(err)
	}
	if s.TableCount() != tables {
		t.Fatal("remap allocated new table pages")
	}
	res, err := pt.Walk(0x1000)
	if err != nil || res.PA != 0x3000 {
		t.Fatalf("walk after remap: %v %#x", err, res.PA)
	}
}

func TestUnmapValidation(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTable(s)
	if _, err := pt.Unmap(0x1001, PageShift); err == nil {
		t.Fatal("misaligned unmap accepted")
	}
	if _, err := pt.Unmap(0x1000, 13); err == nil {
		t.Fatal("bogus shift accepted")
	}
	// Unmapping 4K inside a huge leaf is an error.
	if err := pt.Map(0x200000, 0x400000, HugePageShift); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Unmap(0x201000, PageShift); err == nil {
		t.Fatal("unmap under huge leaf accepted")
	}
}

func TestNestedUnmapRemap(t *testing.T) {
	host := NewSpace("host", 0x1_0000_0000, 0)
	nt, err := NewNestedTable("t", 0x40000000, host)
	if err != nil {
		t.Fatal(err)
	}
	gpa, _, err := nt.MapIOVA(0xbbe00000, HugePageShift)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := nt.UnmapIOVA(0xbbe00000, HugePageShift)
	if err != nil || !ok {
		t.Fatalf("UnmapIOVA: %v %v", ok, err)
	}
	if _, err := nt.Walk(0xbbe00040); err == nil {
		t.Fatal("nested walk succeeded after unmap")
	}
	if err := nt.RemapIOVA(0xbbe00000, gpa, HugePageShift); err != nil {
		t.Fatal(err)
	}
	res, err := nt.Walk(0xbbe00040)
	if err != nil {
		t.Fatal(err)
	}
	if res.GPA != uint64(gpa)+0x40 {
		t.Fatalf("remap GPA %#x", res.GPA)
	}
}

// TestMutationEpoch pins the counters the IOMMU's walk-memoization
// layer keys its validity checks on: every mutation path through either
// walk dimension strictly increases Epoch, and ReplayReads charges host
// reads without touching a table page.
func TestMutationEpoch(t *testing.T) {
	host := NewSpace("host", 0x1_0000_0000, 0)
	nt, err := NewNestedTable("t", 0x40000000, host)
	if err != nil {
		t.Fatal(err)
	}
	e0 := nt.Epoch()
	gpa, _, err := nt.MapIOVA(0x1000_0000, PageShift)
	if err != nil {
		t.Fatal(err)
	}
	e1 := nt.Epoch()
	if e1 <= e0 {
		t.Fatalf("MapIOVA did not advance the epoch: %d -> %d", e0, e1)
	}
	if g := nt.Guest().Mutations(); g == 0 {
		t.Fatal("guest table reports zero mutations after MapIOVA")
	}
	if _, err := nt.UnmapIOVA(0x1000_0000, PageShift); err != nil {
		t.Fatal(err)
	}
	e2 := nt.Epoch()
	if e2 <= e1 {
		t.Fatalf("UnmapIOVA did not advance the epoch: %d -> %d", e1, e2)
	}
	if err := nt.RemapIOVA(0x1000_0000, gpa, PageShift); err != nil {
		t.Fatal(err)
	}
	if nt.Epoch() <= e2 {
		t.Fatalf("RemapIOVA did not advance the epoch: %d -> %d", e2, nt.Epoch())
	}

	// ReplayReads is pure accounting: read counter moves, epoch does not.
	before, eBefore := host.Reads(), nt.Epoch()
	nt.ReplayReads(24)
	if host.Reads() != before+24 {
		t.Fatalf("ReplayReads(24) moved reads %d -> %d", before, host.Reads())
	}
	if nt.Epoch() != eBefore {
		t.Fatal("ReplayReads changed the epoch")
	}
}
