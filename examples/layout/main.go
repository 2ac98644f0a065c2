// Layout demo: the §5.3 data-placement study in miniature. The bipartite
// workload (89% small 4 KB reads, 11% large 400 KB streams) runs
// back-to-back under each placement scheme on the MEMS device, with and
// without X settling time, showing why the sled's Cartesian motion makes
// the subregioned layout — which confines popular data in Y as well as X
// — beat the disk-optimal organ pipe.
package main

import (
	"fmt"
	"log"

	"memsim"
)

func main() {
	for _, settle := range []float64{1, 0} {
		cfg := memsim.DefaultMEMSConfig()
		cfg.SettleConstants = settle
		dev, err := memsim.NewMEMSDevice(cfg)
		if err != nil {
			log.Fatal(err)
		}
		g := dev.Geometry()

		placers := []memsim.Placer{
			memsim.NewSimpleLayout(g.TotalSectors),
			memsim.NewOrganPipeLayout(g.TotalSectors, 0.04),
			memsim.NewMEMSColumnarLayout(g, 25),
			memsim.NewMEMSSubregionedLayout(g, 5),
		}

		fmt.Printf("MEMS device, %g settling time constants:\n", settle)
		base := 0.0
		for i, p := range placers {
			src := memsim.NewBipartiteWorkload(memsim.DefaultBipartiteConfig(1), p)
			res := memsim.SimulateClosed(dev, src, memsim.SimOptions{})
			mean := res.Service.Mean()
			if i == 0 {
				base = mean
			}
			fmt.Printf("  %-12s %.3f ms  (%+.1f%% vs simple)\n",
				p.Name(), mean, (1-mean/base)*100)
		}
		fmt.Println()
	}

	// The same contrast on the disk: organ pipe is the right answer there.
	disk, err := memsim.NewDiskDevice(memsim.Atlas10KConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Atlas 10K:")
	base := 0.0
	for i, p := range []memsim.Placer{
		memsim.NewSimpleLayout(disk.Capacity()),
		memsim.NewOrganPipeLayout(disk.Capacity(), 0.04),
	} {
		src := memsim.NewBipartiteWorkload(memsim.DefaultBipartiteConfig(1), p)
		res := memsim.SimulateClosed(disk, src, memsim.SimOptions{})
		mean := res.Service.Mean()
		if i == 0 {
			base = mean
		}
		fmt.Printf("  %-12s %.3f ms  (%+.1f%% vs simple)\n", p.Name(), mean, (1-mean/base)*100)
	}
}
