// Array demo (§6.2): a four-sled rotated-parity (RAID-5) volume next to
// a four-disk one. The MEMS devices' near-zero read-modify-write
// repositioning (Table 2) erases the RAID-5 small-write penalty that
// spawned a decade of disk-array optimizations — and when the sleds
// share one Ultra160 bus, the interconnect, not the media, limits
// sequential bandwidth.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"memsim"
)

func main() {
	mems := func() memsim.Device {
		d, err := memsim.NewMEMSDevice(memsim.DefaultMEMSConfig())
		if err != nil {
			log.Fatal(err)
		}
		return d
	}
	disk := func() memsim.Device {
		d, err := memsim.NewDiskDevice(memsim.Atlas10KConfig())
		if err != nil {
			log.Fatal(err)
		}
		return d
	}

	fmt.Println("RAID-5 ×4, 4 KB random writes (read-modify-write):")
	fmt.Printf("  MEMS volume  %.3f ms\n", meanResponse(mems, memsim.Write, nil))
	fmt.Printf("  disk volume  %.3f ms\n", meanResponse(disk, memsim.Write, nil))

	// Degraded mode: lose a member at the start; reads of its data
	// reconstruct from the three survivors.
	loseOne, err := memsim.NewFaultInjector(memsim.FaultInjectorConfig{
		DeviceEvents: []memsim.DeviceFailureEvent{{AtMs: 0, Dev: 2}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndegraded MEMS volume, 4 KB random reads: %.3f ms\n", meanResponse(mems, memsim.Read, loseOne))

	// Sequential bandwidth over a shared bus.
	b := memsim.NewBus(memsim.Ultra160BusConfig())
	onBus := make([]memsim.Device, 4)
	for i := range onBus {
		d, err := memsim.NewMEMSDevice(memsim.DefaultMEMSConfig())
		if err != nil {
			log.Fatal(err)
		}
		onBus[i] = b.Attach(d)
	}
	done := make([]float64, 4)
	var bytes float64
	for round := 0; round < 100; round++ {
		for i, d := range onBus {
			r := &memsim.Request{Op: memsim.Read, LBN: int64(round * 512), Blocks: 512}
			done[i] += d.Access(r, done[i])
			bytes += 512 * 512
		}
	}
	elapsed := 0.0
	for _, d := range done {
		if d > elapsed {
			elapsed = d
		}
	}
	fmt.Printf("\n4 sleds streaming over one Ultra160 bus: %.0f MB/s aggregate\n",
		bytes/(elapsed/1000)/1e6)
	fmt.Println("(each sled alone streams 79.6 MB/s — the bus is the bottleneck)")
}

// meanResponse drives 300 random 4 KB requests in direction op, 20 per
// second, over a four-member rotated-parity volume of mk's devices and
// returns their mean response time in ms.
func meanResponse(mk func() memsim.Device, op memsim.Op, inj *memsim.FaultInjector) float64 {
	devs := make([]memsim.Device, 4)
	scheds := make([]memsim.Scheduler, 4)
	for i := range devs {
		devs[i] = mk()
		s, err := memsim.NewScheduler("FCFS")
		if err != nil {
			log.Fatal(err)
		}
		scheds[i] = s
	}
	v, err := memsim.NewVolume(memsim.VolumeConfig{
		Level: memsim.VolumeParity, Members: 4,
		StripeUnit: 8, PerMember: devs[0].Capacity() / 8 * 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	reqs := make([]*memsim.Request, 300)
	for i := range reqs {
		reqs[i] = &memsim.Request{Arrival: float64(i) * 50, Op: op,
			LBN: rng.Int63n(v.Capacity()/8) * 8, Blocks: 8}
	}
	res, err := memsim.SimulateVolume(memsim.VolumeSpec{Volume: v, Devices: devs, Scheds: scheds},
		memsim.RequestsSource(reqs), memsim.SimOptions{Injector: inj})
	if err != nil {
		log.Fatal(err)
	}
	return res.Response.Mean()
}
