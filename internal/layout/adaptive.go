package layout

import (
	"fmt"
	"sort"
)

// AdaptiveOrganPipe implements the maintenance side of the organ-pipe
// layout that §5.3 charges against it: "blocks must be periodically
// shuffled to maintain the frequency distribution. Further, the layout
// requires some state to be kept indicating each block's popularity."
//
// The device's LBN space is divided into fixed-size extents. Accesses
// are recorded per extent; Reshuffle re-ranks extents by (decayed)
// popularity and assigns them to slots spreading outward from the center
// of the LBN space, reporting how many blocks a data migrator would have
// to move. Map implements core.Layout, so the remapper drops into
// core.ManagedDevice; requests must not cross extent boundaries (the
// granularity is chosen per workload — see §5.3's item sizes).
type AdaptiveOrganPipe struct {
	capacity     int64
	extentBlocks int64
	extents      int64

	counts []float64 // decayed access counts per extent
	slot   []int64   // extent → current slot
	// slotOrder[i] is the i-th slot in center-out preference order;
	// orderIdx inverts it (slot → preference index).
	slotOrder []int64
	orderIdx  []int64
	// Decay multiplies historical counts at each reshuffle; 0 forgets
	// everything, 1 never forgets. Defaults to 0.5.
	Decay float64
	// Slack is the incremental shuffler's hysteresis: an extent of
	// popularity rank i already sitting within the (i+Slack) most
	// central slots is left alone. Without it, similarly-hot extents
	// endlessly displace one another over exact slots. Defaults to 8.
	Slack int
}

// NewAdaptiveOrganPipe builds the remapper over a device of the given
// capacity with the given extent granularity; capacity must be a
// multiple of extentBlocks.
func NewAdaptiveOrganPipe(capacity, extentBlocks int64) (*AdaptiveOrganPipe, error) {
	if capacity <= 0 || extentBlocks <= 0 {
		return nil, fmt.Errorf("layout: capacity (%d) and extent (%d) must be positive", capacity, extentBlocks)
	}
	if capacity%extentBlocks != 0 {
		return nil, fmt.Errorf("layout: capacity %d not a multiple of extent %d", capacity, extentBlocks)
	}
	n := capacity / extentBlocks
	a := &AdaptiveOrganPipe{
		capacity:     capacity,
		extentBlocks: extentBlocks,
		extents:      n,
		counts:       make([]float64, n),
		slot:         make([]int64, n),
		slotOrder:    make([]int64, n),
		orderIdx:     make([]int64, n),
		Decay:        0.5,
		Slack:        8,
	}
	for i := int64(0); i < n; i++ {
		a.slot[i] = i // identity placement until the first reshuffle
	}
	// Center-out slot preference: center, center+1, center−1, …
	mid := n / 2
	for i := int64(0); i < n; i++ {
		step := (i + 1) / 2
		if i%2 == 1 {
			step = -step
		}
		s := mid + step
		// Clamp ends (asymmetry when n is even).
		if s < 0 {
			s = n - 1 - (-s - 1)
		}
		if s >= n {
			s = s - n
		}
		a.slotOrder[i] = s
	}
	for i, s := range a.slotOrder {
		a.orderIdx[s] = int64(i)
	}
	return a, nil
}

// Name implements core.Layout.
func (a *AdaptiveOrganPipe) Name() string { return "adaptive-organ-pipe" }

// Map implements core.Layout: blocks move with their extent.
func (a *AdaptiveOrganPipe) Map(lbn int64) int64 {
	if lbn < 0 || lbn >= a.capacity {
		panic(fmt.Sprintf("layout: LBN %d outside capacity %d", lbn, a.capacity))
	}
	e := lbn / a.extentBlocks
	return a.slot[e]*a.extentBlocks + lbn%a.extentBlocks
}

// Record observes an access so popularity can be tracked. Call it with
// the *logical* (pre-Map) address.
func (a *AdaptiveOrganPipe) Record(lbn int64, blocks int) {
	if blocks <= 0 || lbn < 0 || lbn+int64(blocks) > a.capacity {
		panic(fmt.Sprintf("layout: Record [%d,%d) outside capacity %d", lbn, lbn+int64(blocks), a.capacity))
	}
	first := lbn / a.extentBlocks
	last := (lbn + int64(blocks) - 1) / a.extentBlocks
	for e := first; e <= last; e++ {
		a.counts[e]++
	}
}

// Reshuffle re-ranks extents by popularity, assigns them center-out, and
// returns the number of blocks whose physical location changed — the
// migration volume a shuffler would move (both reads and writes; callers
// charge 2× this volume against device bandwidth). Historical counts are
// decayed by Decay afterwards. Reshuffling changes Map, so it must not
// run while requests sit in a cost-model scheduler's queue (see
// core.Layout); the shuffle artifact reshuffles with no scheduler.
func (a *AdaptiveOrganPipe) Reshuffle() (blocksMoved int64) {
	rank := a.ranked()
	for i, e := range rank {
		ns := a.slotOrder[i]
		if a.slot[e] != ns {
			blocksMoved += a.extentBlocks
			a.slot[e] = ns
		}
	}
	a.decayCounts()
	return blocksMoved
}

// ReshuffleN is the incremental shuffler real systems run during idle
// time: it corrects at most maxMoves misplaced extents, highest
// popularity rank first, swapping each into its desired slot (the
// displaced extent moves too, so up to 2·maxMoves extents relocate). It
// returns the blocks moved. Counts decay, and the queue rule applies,
// as in Reshuffle.
func (a *AdaptiveOrganPipe) ReshuffleN(maxMoves int) (blocksMoved int64) {
	if maxMoves < 0 {
		panic(fmt.Sprintf("layout: negative maxMoves %d", maxMoves))
	}
	rank := a.ranked()
	// Inverse map: slot → extent occupying it.
	occ := make([]int64, a.extents)
	for e, s := range a.slot {
		occ[s] = int64(e)
	}
	moves := 0
	for i, e := range rank {
		if moves >= maxMoves {
			break
		}
		ns := a.slotOrder[i]
		if a.slot[e] == ns {
			continue
		}
		// Hysteresis: an extent already about as central as its rank
		// deserves stays put; similarly-popular extents must not fight
		// over exact slots.
		if a.orderIdx[a.slot[e]] <= int64(i+a.Slack) {
			continue
		}
		f := occ[ns]
		// Only displace a clearly less popular occupant (2× + 1):
		// background extents that picked up a stray access must not
		// churn, and near-ties are not worth a migration. This is what
		// makes the incremental shuffler converge instead of moving
		// data forever.
		if a.counts[e] <= 2*a.counts[f]+1 {
			continue
		}
		// Swap e into ns; the displaced extent takes e's old slot.
		old := a.slot[e]
		a.slot[e], a.slot[f] = ns, old
		occ[ns], occ[old] = e, f
		blocksMoved += 2 * a.extentBlocks
		moves++
	}
	a.decayCounts()
	return blocksMoved
}

// ranked returns extent indices in decreasing popularity order (stable).
func (a *AdaptiveOrganPipe) ranked() []int64 {
	rank := make([]int64, a.extents)
	for i := range rank {
		rank[i] = int64(i)
	}
	sort.SliceStable(rank, func(i, j int) bool {
		return a.counts[rank[i]] > a.counts[rank[j]]
	})
	return rank
}

func (a *AdaptiveOrganPipe) decayCounts() {
	for i := range a.counts {
		a.counts[i] *= a.Decay
	}
}

// HotExtent returns the currently most-popular extent index (ties go to
// the lowest index); diagnostic.
func (a *AdaptiveOrganPipe) HotExtent() int64 {
	best := int64(0)
	for i := int64(1); i < a.extents; i++ {
		if a.counts[i] > a.counts[best] {
			best = i
		}
	}
	return best
}
