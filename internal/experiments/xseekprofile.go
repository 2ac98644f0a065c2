package experiments

func init() { register("seekprofile", seekProfilePlan) }

// seekProfilePlan (extension) tabulates the device's seek-time curves —
// the mechanical facts from which Figs. 9 and 10 and the §4.4 settling
// analysis follow. For the MEMS device it reports X seek time vs.
// distance for an interval at the sled center and the same interval at
// the edge (§2.4.4: position-dependent because of the springs;
// rest-to-rest seeks are direction- and mirror-symmetric, so interval
// position is the whole story), the Y seek for the same physical distance
// (which must end at access velocity), and the disk's seek curve for
// contrast.
//
// Pure seek-curve evaluation on private devices — one cheap job.
func seekProfilePlan(p Params) *Plan {
	return tablesJob("seekprofile", p.Seed, seekProfileBody)
}

func seekProfileBody() []Table {
	d := newMEMS(1)
	g := d.Geometry()
	x := Table{
		ID:    "seekprofile-mems",
		Title: "MEMS seek time vs. distance (ms; settle included in X)",
		Columns: []string{"distance(cyl)", "X interval centered", "X interval at edge",
			"Y same distance"},
	}
	sled := g.Sled()
	for _, dist := range []int{1, 10, 50, 100, 250, 500, 1000, 2000, 2499} {
		row := []string{f2(float64(dist))}
		// Interval centered on the sled's origin.
		lo := (g.Cylinders - dist) / 2
		row = append(row, ms(d.SeekX(lo, lo+dist)))
		// Interval ending at the edge.
		row = append(row, ms(d.SeekX(g.Cylinders-1-dist, g.Cylinders-1)))
		// Y seek over the same physical distance (no settle, must end at
		// access velocity).
		meters := float64(dist) * g.BitWidth
		y0 := -meters / 2
		ty := sled.SeekTime(y0, 0, y0+meters, g.AccessSpeed) * 1e3
		row = append(row, ms(ty))
		x.AddRow(row...)
	}

	dd := newDisk()
	dk := Table{
		ID:      "seekprofile-disk",
		Title:   "Atlas 10K seek time vs. distance (ms)",
		Columns: []string{"distance(cyl)", "seek"},
	}
	for _, dist := range []int{1, 10, 100, 1000, 3347, 6000, 10041} {
		dk.AddRow(f2(float64(dist)), ms(dd.SeekTime(dist)))
	}
	return []Table{x, dk}
}
