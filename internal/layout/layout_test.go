package layout

import (
	"math/rand"
	"testing"
	"testing/quick"

	"memsim/internal/disk"
	"memsim/internal/mems"
)

func geo(t testing.TB) *mems.Geometry {
	t.Helper()
	g, err := mems.NewGeometry(mems.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCenterOutNoOverlap(t *testing.T) {
	sizes := []int64{10, 20, 5, 5, 40, 1}
	starts, err := CenterOut(sizes, 1000)
	if err != nil {
		t.Fatal(err)
	}
	type span struct{ lo, hi int64 }
	var spans []span
	for i, s := range starts {
		spans = append(spans, span{s, s + sizes[i]})
		if s < 0 || s+sizes[i] > 1000 {
			t.Fatalf("item %d out of extent: [%d,%d)", i, s, s+sizes[i])
		}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("items %d and %d overlap: %v %v", i, j, spans[i], spans[j])
			}
		}
	}
}

func TestCenterOutRankZeroAtCenter(t *testing.T) {
	starts, err := CenterOut([]int64{8, 8, 8, 8}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 starts exactly at the center.
	if starts[0] != 50 {
		t.Errorf("rank-0 start = %d, want 50", starts[0])
	}
	// More popular items sit closer to the center.
	center := int64(50)
	dist := func(i int) int64 {
		mid := starts[i] + 4
		if mid < center {
			return center - mid
		}
		return mid - center
	}
	for i := 1; i < 4; i++ {
		if dist(i) < dist(0) {
			t.Errorf("item %d (rank %d) closer to center than rank 0", i, i)
		}
	}
}

func TestCenterOutErrors(t *testing.T) {
	if _, err := CenterOut([]int64{0}, 10); err == nil {
		t.Error("expected error for zero-size item")
	}
	if _, err := CenterOut([]int64{-3}, 10); err == nil {
		t.Error("expected error for negative item")
	}
	if _, err := CenterOut([]int64{6, 6}, 10); err == nil {
		t.Error("expected error for capacity overflow")
	}
}

func TestCenterOutProperty(t *testing.T) {
	// Property: any feasible item list is placed without overlap and
	// within the extent.
	f := func(raw []uint8) bool {
		var sizes []int64
		var total int64
		for _, v := range raw {
			s := int64(v%50) + 1
			sizes = append(sizes, s)
			total += s
		}
		capacity := total + 10
		starts, err := CenterOut(sizes, capacity)
		if err != nil {
			return false
		}
		occupied := map[int64]bool{}
		for i, st := range starts {
			if st < 0 || st+sizes[i] > capacity {
				return false
			}
			for b := st; b < st+sizes[i]; b++ {
				if occupied[b] {
					return false
				}
				occupied[b] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// checkPlacer verifies the fundamental Placer contract: every placement
// keeps the request inside the device.
func checkPlacer(t *testing.T, p Placer, capacity int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for _, blocks := range []int{8, 800} {
		class := Small
		if blocks > 100 {
			class = Large
		}
		for i := 0; i < 5000; i++ {
			lbn := p.Place(rng, class, blocks)
			if lbn < 0 || lbn+int64(blocks) > capacity {
				t.Fatalf("%s: placement [%d,%d) outside capacity %d",
					p.Name(), lbn, lbn+int64(blocks), capacity)
			}
		}
	}
}

func TestMEMSPlacersStayInBounds(t *testing.T) {
	g := geo(t)
	for _, p := range []Placer{
		NewSimple(g.TotalSectors),
		NewOrganPipe(g.TotalSectors, 0.04),
		NewMEMSColumnar(g, 25),
		NewMEMSSubregioned(g, 5),
	} {
		checkPlacer(t, p, g.TotalSectors)
	}
}

func TestDiskPlacersStayInBounds(t *testing.T) {
	d := disk.MustDevice(disk.Atlas10K())
	for _, p := range []Placer{
		NewSimple(d.Capacity()),
		NewOrganPipe(d.Capacity(), 0.04),
	} {
		checkPlacer(t, p, d.Capacity())
	}
}

func TestColumnarSmallConfinedToCenterColumn(t *testing.T) {
	g := geo(t)
	p := NewMEMSColumnar(g, 25)
	rng := rand.New(rand.NewSource(2))
	per := g.Cylinders / 25
	lo, hi := 12*per, 13*per
	for i := 0; i < 2000; i++ {
		lbn := p.Place(rng, Small, 8)
		cyl, _, _, _ := g.Decompose(lbn)
		if cyl < lo || cyl >= hi {
			t.Fatalf("small request at cylinder %d, want [%d,%d)", cyl, lo, hi)
		}
	}
}

func TestColumnarLargeAvoidsCenter(t *testing.T) {
	g := geo(t)
	p := NewMEMSColumnar(g, 25)
	rng := rand.New(rand.NewSource(3))
	per := g.Cylinders / 25
	for i := 0; i < 2000; i++ {
		lbn := p.Place(rng, Large, 800)
		cyl, _, _, _ := g.Decompose(lbn)
		col := cyl / per
		if col >= 10 && col < 15 {
			t.Fatalf("large request started in center column %d", col)
		}
	}
}

func TestSubregionedSmallConfinedInXAndY(t *testing.T) {
	g := geo(t)
	p := NewMEMSSubregioned(g, 5)
	rng := rand.New(rand.NewSource(4))
	cLo, cHi := 2*g.Cylinders/5, 3*g.Cylinders/5
	rLo, rHi := 2*g.RowsPerTrack/5, 3*g.RowsPerTrack/5
	for i := 0; i < 2000; i++ {
		lbn := p.Place(rng, Small, 8)
		cyl, _, row, _ := g.Decompose(lbn)
		if cyl < cLo || cyl >= cHi {
			t.Fatalf("small request at cylinder %d, want [%d,%d)", cyl, cLo, cHi)
		}
		if row < rLo || row >= rHi {
			t.Fatalf("small request at row %d, want [%d,%d)", row, rLo, rHi)
		}
	}
}

func TestSubregionedLargeInOuterBands(t *testing.T) {
	g := geo(t)
	p := NewMEMSSubregioned(g, 5)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		lbn := p.Place(rng, Large, 800)
		cyl, _, _, _ := g.Decompose(lbn)
		band := cyl * 5 / g.Cylinders
		if band == 2 {
			t.Fatalf("large request started in center band (cyl %d)", cyl)
		}
	}
}

func TestOrganPipeSmallCentered(t *testing.T) {
	g := geo(t)
	p := NewOrganPipe(g.TotalSectors, 0.04)
	rng := rand.New(rand.NewSource(6))
	mid := g.TotalSectors / 2
	band := int64(0.02*float64(g.TotalSectors)) + 8
	for i := 0; i < 2000; i++ {
		lbn := p.Place(rng, Small, 8)
		d := lbn - mid
		if d < 0 {
			d = -d
		}
		if d > band {
			t.Fatalf("small request %d blocks from center, want within %d", d, band)
		}
	}
	// Large requests never land inside the small core.
	for i := 0; i < 2000; i++ {
		lbn := p.Place(rng, Large, 800)
		if lbn >= mid-band && lbn < mid+band-800 {
			t.Fatalf("large request inside small core at %d", lbn)
		}
	}
}

func TestPlacerNames(t *testing.T) {
	g := geo(t)
	cases := map[string]Placer{
		"simple":      NewSimple(g.TotalSectors),
		"organ-pipe":  NewOrganPipe(g.TotalSectors, 0.04),
		"columnar":    NewMEMSColumnar(g, 25),
		"subregioned": NewMEMSSubregioned(g, 5),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	g := geo(t)
	for _, f := range []func(){
		func() { NewMEMSColumnar(g, 1) },
		func() { NewMEMSColumnar(g, g.Cylinders+1) },
		func() { NewMEMSSubregioned(g, 2) },
		func() { NewMEMSSubregioned(g, g.RowsPerTrack+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestClassString(t *testing.T) {
	if Small.String() != "small" || Large.String() != "large" {
		t.Error("Class.String mismatch")
	}
}

func TestColumnarOversizedRequestFlowsPastBand(t *testing.T) {
	// A request larger than its column band starts at the band and flows
	// into subsequent cylinders, staying inside the device.
	g := geo(t)
	p := NewMEMSColumnar(g, 25)
	rng := rand.New(rand.NewSource(9))
	huge := g.SectorsPerCylinder * (g.Cylinders/25 + 5) // larger than one column
	for i := 0; i < 50; i++ {
		lbn := p.Place(rng, Small, huge)
		if lbn < 0 || lbn+int64(huge) > g.TotalSectors {
			t.Fatalf("oversized placement [%d,%d) escapes device", lbn, lbn+int64(huge))
		}
	}
	// Also at the device end: a large request in the last column.
	pSub := NewMEMSSubregioned(g, 5)
	for i := 0; i < 200; i++ {
		lbn := pSub.Place(rng, Large, 4000)
		if lbn < 0 || lbn+4000 > g.TotalSectors {
			t.Fatalf("subregioned large placement escapes device")
		}
	}
}
