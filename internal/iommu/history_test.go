package iommu

import (
	"math/rand"
	"reflect"
	"testing"

	"hypertrio/internal/mem"
)

// refHistory is the map-backed history store the dense rows replaced,
// kept as the reference the dense version must match read for read.
type refHistory struct {
	depth int
	bySID map[mem.SID][]HistoryEntry
}

func (h *refHistory) record(sid mem.SID, iova uint64, pageShift uint8) {
	base := iova &^ (uint64(1)<<pageShift - 1)
	entries := h.bySID[sid]
	for i, e := range entries {
		if e.IOVA == base {
			copy(entries[1:i+1], entries[:i])
			entries[0] = HistoryEntry{IOVA: base, PageShift: pageShift}
			return
		}
	}
	entries = append(entries, HistoryEntry{})
	copy(entries[1:], entries)
	entries[0] = HistoryEntry{IOVA: base, PageShift: pageShift}
	if len(entries) > h.depth {
		entries = entries[:h.depth]
	}
	h.bySID[sid] = entries
}

func (h *refHistory) appendRecent(dst []HistoryEntry, sid mem.SID, n int) []HistoryEntry {
	entries := h.bySID[sid]
	if n > len(entries) {
		n = len(entries)
	}
	return append(dst, entries[:n]...)
}

func (h *refHistory) drop(sid mem.SID, iova uint64, pageShift uint8) {
	base := iova &^ (uint64(1)<<pageShift - 1)
	entries := h.bySID[sid]
	for i, e := range entries {
		if e.IOVA == base {
			h.bySID[sid] = append(entries[:i], entries[i+1:]...)
			return
		}
	}
}

func (h *refHistory) tenants() int {
	n := 0
	for _, e := range h.bySID {
		if len(e) > 0 {
			n++
		}
	}
	return n
}

// TestHistoryMatchesMapReference drives the dense history and the map
// reference through identical random Record/Drop/DropSID sequences over
// sparse SIDs (0, 7, 10⁶ among dense ones) and mixed page sizes: every
// AppendRecent and Recent read, at every length, must agree exactly, and
// so must the count of SIDs holding history.
func TestHistoryMatchesMapReference(t *testing.T) {
	sids := []mem.SID{0, 1, 2, 7, 8, 1_000_000}
	for _, depth := range []int{1, 3, DefaultHistoryDepth} {
		rng := rand.New(rand.NewSource(int64(depth)))
		h := NewHistory(depth)
		ref := &refHistory{depth: depth, bySID: map[mem.SID][]HistoryEntry{}}
		var got, want []HistoryEntry
		for op := 0; op < 20000; op++ {
			sid := sids[rng.Intn(len(sids))]
			shift := uint8(mem.PageShift)
			if rng.Intn(4) == 0 {
				shift = mem.HugePageShift
			}
			iova := uint64(rng.Intn(12))<<shift | uint64(rng.Intn(1<<shift))
			switch r := rng.Intn(20); {
			case r < 12:
				h.Record(sid, iova, shift)
				ref.record(sid, iova, shift)
			case r < 18:
				h.Drop(sid, iova, shift)
				ref.drop(sid, iova, shift)
			default:
				h.DropSID(sid)
				delete(ref.bySID, sid)
			}
			n := rng.Intn(depth + 2)
			got = h.AppendRecent(got[:0], sid, n)
			want = ref.appendRecent(want[:0], sid, n)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("depth %d op %d: AppendRecent(%d, %d) = %+v, reference %+v", depth, op, sid, n, got, want)
			}
			if r := h.Recent(sid, n); len(r) != len(want) || (len(r) > 0 && !reflect.DeepEqual(r, want)) {
				t.Fatalf("depth %d op %d: Recent(%d, %d) = %+v, reference %+v", depth, op, sid, n, r, want)
			}
			if op%1000 == 999 && h.Tenants() != ref.tenants() { // Tenants scans every SID
				t.Fatalf("depth %d op %d: Tenants %d, reference %d", depth, op, h.Tenants(), ref.tenants())
			}
		}
	}
}
