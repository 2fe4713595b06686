package mem

import "fmt"

// NestedKind classifies one physical access inside a two-dimensional walk,
// so the IOMMU model can attribute latency and cache behaviour.
type NestedKind uint8

const (
	// HostForGuest is a host-table read performed to translate the guest
	// physical address of a guest table page (or of the final data page).
	HostForGuest NestedKind = iota
	// GuestEntry is the read of a guest page-table entry itself.
	GuestEntry
)

func (k NestedKind) String() string {
	switch k {
	case HostForGuest:
		return "host"
	case GuestEntry:
		return "guest"
	}
	return fmt.Sprintf("NestedKind(%d)", uint8(k))
}

// NestedAccess is one physical (host) memory access of a nested walk.
type NestedAccess struct {
	HostAddr   Addr // host-physical address that was read
	Kind       NestedKind
	GuestLevel int // guest level being resolved (4..1; 0 for the final host walk)
}

// NestedResult is the outcome of a full or partial two-dimensional walk.
type NestedResult struct {
	HPA       uint64 // host-physical translation of the input gIOVA
	GPA       uint64 // intermediate guest-physical address
	PageShift uint   // guest page size that was hit
	Accesses  []NestedAccess
}

// NestedTable models one tenant's two-dimensional translation: a guest
// page table (gIOVA -> gPA) whose table pages live in guest-physical
// space, and a host page table (gPA -> hPA) that also translates the
// guest table pages themselves. A full walk of a 4 KB mapping performs
// 24 physical accesses, a 2 MB guest mapping 19, matching the counts the
// paper uses (§II-A, Table II).
type NestedTable struct {
	guestSpace *Space
	guest      *PageTable
	host       *PageTable
	hostSpace  *Space

	// guestFrames maps every guest-physical frame we allocated (table
	// pages and data pages) to its host frame; used to keep the host
	// table complete and by tests.
	guestFrames map[Addr]Addr

	// hostBuf is the reused scratch for the host-dimension accesses of a
	// single walk step, so steady-state walks allocate nothing. Walks are
	// engine-serial per tenant, so one buffer suffices.
	hostBuf []Access
}

// NewNestedTable builds an empty nested translation for one tenant with
// 4-level tables. guestBase is where the tenant's guest-physical
// allocations start (every tenant may use the same guest-physical layout
// — isolation comes from the per-tenant host table). hostSpace is the
// shared host physical memory.
func NewNestedTable(name string, guestBase Addr, hostSpace *Space) (*NestedTable, error) {
	return NewNestedTableLevels(name, guestBase, hostSpace, Levels)
}

// NewNestedTableLevels builds the nested translation with the given table
// depth in both dimensions (4 or 5; §II-A's 24- vs 35-access walks).
func NewNestedTableLevels(name string, guestBase Addr, hostSpace *Space, levels int) (*NestedTable, error) {
	nt := &NestedTable{
		guestSpace:  NewSpace(name+"/guest", guestBase, 0),
		hostSpace:   hostSpace,
		guestFrames: make(map[Addr]Addr),
	}
	nt.host = NewPageTableLevels(hostSpace, levels)
	nt.guest = NewPageTableLevels(nt.guestSpace, levels)
	// The guest root table page itself needs a host mapping.
	if err := nt.adoptGuestTables(); err != nil {
		return nil, err
	}
	return nt, nil
}

// Guest returns the guest (first-level) page table.
func (nt *NestedTable) Guest() *PageTable { return nt.guest }

// Host returns the host (second-level) page table.
func (nt *NestedTable) Host() *PageTable { return nt.host }

// GuestRoot returns the guest-physical address of the guest L4 table.
func (nt *NestedTable) GuestRoot() Addr { return nt.guest.Root() }

// HostRoot returns the host-physical address of the host L4 table.
func (nt *NestedTable) HostRoot() Addr { return nt.host.Root() }

// adoptGuestTables host-maps any guest table pages that do not have a
// host frame yet. Guest tables are created lazily by guest.Map, so this
// runs after every MapIOVA.
func (nt *NestedTable) adoptGuestTables() error {
	// Iterate the registration-order slice directly: the guest bump
	// allocator hands out ascending addresses, so the order matches the
	// sorted TableAddrs() view without building a copy per MapIOVA.
	for _, gpa := range nt.guestSpace.tableAddrs {
		if _, ok := nt.guestFrames[gpa]; ok {
			continue
		}
		hpa := nt.hostSpace.AllocFrame(PageShift)
		if err := nt.host.Map(uint64(gpa), uint64(hpa), PageShift); err != nil {
			return fmt.Errorf("mem: host-mapping guest table %#x: %w", uint64(gpa), err)
		}
		// Alias the guest table page's contents at its host-physical
		// address so the nested walker can read guest entries through
		// host physical memory, as real hardware does.
		if err := nt.hostSpace.AliasTable(hpa, nt.guestSpace, gpa); err != nil {
			return err
		}
		nt.guestFrames[gpa] = hpa
	}
	return nil
}

// MapIOVA allocates a fresh guest-physical page of size 1<<pageShift,
// maps iova to it in the guest table, allocates backing host memory and
// maps the guest page in the host table. It returns the guest-physical
// and host-physical bases of the new page.
func (nt *NestedTable) MapIOVA(iova uint64, pageShift uint) (gpa, hpa Addr, err error) {
	gpa = nt.guestSpace.AllocFrame(pageShift)
	if err = nt.guest.Map(iova, uint64(gpa), pageShift); err != nil {
		return 0, 0, err
	}
	if err = nt.adoptGuestTables(); err != nil {
		return 0, 0, err
	}
	hpa = nt.hostSpace.AllocFrame(pageShift)
	if err = nt.host.Map(uint64(gpa), uint64(hpa), pageShift); err != nil {
		return 0, 0, err
	}
	nt.guestFrames[gpa] = hpa
	return gpa, hpa, nil
}

// hostTranslate runs the host dimension for one guest-physical address and
// appends its accesses. It walks through the reused hostBuf scratch, so a
// warm host walk allocates nothing.
func (nt *NestedTable) hostTranslate(gpa uint64, guestLevel int, acc *[]NestedAccess) (uint64, error) {
	res, err := nt.host.WalkFromInto(gpa, nt.host.levels, nt.host.root, nt.hostBuf[:0])
	nt.hostBuf = res.Accesses[:0]
	for _, a := range res.Accesses {
		*acc = append(*acc, NestedAccess{HostAddr: a.Addr, Kind: HostForGuest, GuestLevel: guestLevel})
	}
	if err != nil {
		return 0, err
	}
	return res.PA, nil
}

// WalkFrom performs the two-dimensional walk starting at guest level
// startLevel with the guest table page already resolved to host-physical
// address tableHPA. A page-walk-cache hit supplies (startLevel, tableHPA);
// a full walk uses startLevel = Levels+1 semantics via Walk.
func (nt *NestedTable) WalkFrom(iova uint64, startLevel int, tableHPA Addr) (NestedResult, error) {
	return nt.WalkFromInto(iova, startLevel, tableHPA, nil)
}

// WalkFromInto is WalkFrom appending the walk's accesses onto acc (a
// reused scratch buffer on the hot path; nil for the allocating form).
func (nt *NestedTable) WalkFromInto(iova uint64, startLevel int, tableHPA Addr, acc []NestedAccess) (NestedResult, error) {
	res := NestedResult{Accesses: acc}
	curHost := tableHPA
	for level := startLevel; level >= 1; level-- {
		entryHost := curHost + Addr(index(iova, level)*8)
		e, err := nt.hostSpace.ReadEntry(entryHost)
		if err != nil {
			return res, err
		}
		res.Accesses = append(res.Accesses, NestedAccess{HostAddr: entryHost, Kind: GuestEntry, GuestLevel: level})
		if e&ptePresent == 0 {
			return res, &NotMappedError{VA: iova, Level: level}
		}
		if level == 1 || e&ptePageSize != 0 {
			shift := levelShift(level)
			res.PageShift = shift
			res.GPA = e&pteAddrMask&^(uint64(1)<<shift-1) | iova&(uint64(1)<<shift-1)
			hpa, err := nt.hostTranslate(res.GPA, 0, &res.Accesses)
			if err != nil {
				return res, err
			}
			res.HPA = hpa
			return res, nil
		}
		// Entry points at the next guest table by guest-physical address;
		// resolve that gPA through the host table.
		nextGPA := e & pteAddrMask
		nextHost, err := nt.hostTranslate(nextGPA, level-1, &res.Accesses)
		if err != nil {
			return res, err
		}
		curHost = Addr(nextHost)
	}
	return res, fmt.Errorf("mem: nested walk of %#x fell through", iova)
}

// Walk performs the full two-dimensional walk of iova: it first resolves
// the guest root's gPA through the host table, then descends guest levels,
// translating every guest table pointer through the host dimension.
func (nt *NestedTable) Walk(iova uint64) (NestedResult, error) {
	return nt.WalkInto(iova, nil)
}

// WalkInto is Walk appending the walk's accesses onto acc (a reused
// scratch buffer on the hot path; nil for the allocating form).
func (nt *NestedTable) WalkInto(iova uint64, acc []NestedAccess) (NestedResult, error) {
	res := NestedResult{Accesses: acc}
	rootHost, err := nt.hostTranslate(uint64(nt.guest.Root()), nt.guest.levels, &res.Accesses)
	if err != nil {
		return res, err
	}
	return nt.WalkFromInto(iova, nt.guest.levels, Addr(rootHost), res.Accesses)
}

// SilentWalkInto is WalkInto without charging its reads to host memory:
// the read counter is restored on every path, errors included, so the
// walk leaves no trace in the model's accounting. The IOMMU model runs it
// to learn a walk's full access vector (translation, resume-point table
// addresses and suffix counts) and then charges only the reads the
// modeled walk performs.
func (nt *NestedTable) SilentWalkInto(iova uint64, acc []NestedAccess) (NestedResult, error) {
	reads := nt.hostSpace.reads
	res, err := nt.WalkInto(iova, acc)
	nt.hostSpace.reads = reads
	return res, err
}

// TableHPA returns the host-physical address of the guest table page that
// a partial walk resumes from at the given guest level, by performing a
// silent (uncounted) walk.
func (nt *NestedTable) TableHPA(iova uint64, level int) (Addr, error) {
	reads := nt.hostSpace.reads
	defer func() { nt.hostSpace.reads = reads }()
	curGPA := uint64(nt.guest.Root())
	for l := nt.guest.levels; l > level; l-- {
		hostRes, err := nt.host.WalkFromInto(curGPA, nt.host.levels, nt.host.root, nt.hostBuf[:0])
		nt.hostBuf = hostRes.Accesses[:0]
		if err != nil {
			return 0, err
		}
		entryHost := Addr(hostRes.PA) + Addr(index(iova, l)*8)
		e, err := nt.hostSpace.ReadEntry(entryHost)
		if err != nil {
			return 0, err
		}
		if e&ptePresent == 0 {
			return 0, &NotMappedError{VA: iova, Level: l}
		}
		if e&ptePageSize != 0 {
			return 0, fmt.Errorf("mem: no level-%d table for %#x (level-%d leaf)", level, iova, l)
		}
		curGPA = e & pteAddrMask
	}
	hostRes, err := nt.host.WalkFromInto(curGPA, nt.host.levels, nt.host.root, nt.hostBuf[:0])
	nt.hostBuf = hostRes.Accesses[:0]
	if err != nil {
		return 0, err
	}
	return Addr(hostRes.PA), nil
}

// Epoch summarizes the mutation state of both walk dimensions. The two
// mutation counters only grow, so any Map/Unmap against either table —
// driver unmaps, fault-plan remaps, lazy table adoption — strictly
// increases the epoch, and an equal snapshot proves every walk through
// this table still returns exactly what it returned when the snapshot
// was taken. The IOMMU's walk-memoization layer keys its validity checks
// on it.
func (nt *NestedTable) Epoch() uint64 {
	return nt.guest.mutations + nt.host.mutations
}

// ReplayReads charges n entry reads to host physical memory without
// touching any table page — the accounting half of replaying a memoized
// walk, which must leave the read counters exactly as the real walk
// would have.
func (nt *NestedTable) ReplayReads(n int) {
	nt.hostSpace.reads += uint64(n)
}

// UnmapIOVA removes the guest mapping for iova (driver unmap). The
// guest-physical frame stays host-mapped: only the gIOVA becomes
// untranslatable until the driver maps it again.
func (nt *NestedTable) UnmapIOVA(iova uint64, pageShift uint) (bool, error) {
	return nt.guest.Unmap(iova, uint(pageShift))
}

// RemapIOVA reinstalls a translation for iova onto an existing
// guest-physical page (the driver recycling a buffer page).
func (nt *NestedTable) RemapIOVA(iova uint64, gpa Addr, pageShift uint) error {
	return nt.guest.Map(iova, uint64(gpa), uint(pageShift))
}
