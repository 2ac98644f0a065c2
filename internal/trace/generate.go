package trace

import (
	"fmt"
	"math/rand"

	"memsim/internal/core"
)

// CelloConfig parameterizes the synthetic Cello-like trace. The HP Cello
// trace (Ruemmler & Wilkes 1993) captured a week of activity from a
// program-development/mail/news server; its salient structure, reproduced
// here, is: bursty arrivals (think-time gaps punctuated by activity
// bursts), a write-heavy mix (~55% writes dominated by metadata and log
// updates), a small set of hot regions absorbing much of the traffic, and
// occasional long sequential read runs.
type CelloConfig struct {
	// Capacity and SectorSize describe the target device.
	Capacity   int64
	SectorSize int
	// Count is the number of requests to generate.
	Count int
	// MeanRate is the long-run average arrival rate, requests/s.
	MeanRate float64
	// HotRegions is the number of hot spots (file-system metadata areas).
	HotRegions int
	// HotFraction is the probability a request targets a hot region.
	HotFraction float64
	// ReadFraction is the probability of a read (0.45 for Cello).
	ReadFraction float64
	// Seed makes the trace reproducible.
	Seed int64
}

// Generate builds the named synthetic trace, "cello" or "tpcc", with its
// default configuration for a device of the given capacity.
func Generate(kind string, capacity int64, count int) (*Trace, error) {
	switch kind {
	case "cello":
		return GenerateCello(DefaultCello(capacity, count)), nil
	case "tpcc":
		return GenerateTPCC(DefaultTPCC(capacity, count)), nil
	}
	return nil, fmt.Errorf("unknown trace %q (want cello or tpcc)", kind)
}

// DefaultCello returns the configuration used by the Fig. 7 reproduction.
func DefaultCello(capacity int64, count int) CelloConfig {
	return CelloConfig{
		Capacity:     capacity,
		SectorSize:   512,
		Count:        count,
		MeanRate:     40,
		HotRegions:   8,
		HotFraction:  0.6,
		ReadFraction: 0.45,
		Seed:         1992, // the trace year
	}
}

// GenerateCello builds the synthetic Cello-like trace.
func GenerateCello(cfg CelloConfig) *Trace {
	if cfg.Capacity <= 0 || cfg.Count <= 0 || cfg.MeanRate <= 0 || cfg.HotRegions <= 0 {
		panic(fmt.Sprintf("trace: invalid cello config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Trace{Name: "cello-synthetic"}

	// Hot regions: small extents scattered over the device, with a skewed
	// popularity (region 0 is the hottest — the file-system log/metadata).
	type region struct{ start, size int64 }
	regions := make([]region, cfg.HotRegions)
	for i := range regions {
		size := int64(2048 + rng.Intn(8192)) // 1–5 MB extents
		regions[i] = region{start: rng.Int63n(cfg.Capacity - size), size: size}
	}

	// Arrivals: on/off bursts. Burst lengths are geometric; within a
	// burst, interarrivals are short exponentials; between bursts, long
	// idle gaps. The duty cycle is tuned to hit MeanRate on average.
	burstGapMs := 1000.0 / cfg.MeanRate / 4 // in-burst mean interarrival
	now := 0.0
	emitted := 0
	seqRun := 0
	var seqNext int64
	for emitted < cfg.Count {
		burst := 4 + rng.Intn(24)
		for b := 0; b < burst && emitted < cfg.Count; b++ {
			now += rng.ExpFloat64() * burstGapMs
			rec := Record{TimeMs: now}
			switch {
			case seqRun > 0:
				// Continue a sequential read run (a large file read).
				rec.Op = core.Read
				rec.Blocks = 16
				rec.LBN = seqNext
				seqNext += int64(rec.Blocks)
				seqRun--
				if seqNext+64 >= cfg.Capacity {
					seqRun = 0
				}
			case rng.Float64() < cfg.HotFraction:
				// Hot-region access: small and write-dominated (metadata
				// and log updates are what make Cello write-heavy).
				rec.Op = core.Write
				if rng.Float64() < 0.30 {
					rec.Op = core.Read
				}
				ri := int(float64(cfg.HotRegions) * rng.Float64() * rng.Float64()) // skew toward region 0
				r := regions[ri]
				rec.Blocks = 2 + 2*rng.Intn(4) // 1–4 KB
				rec.LBN = r.start + rng.Int63n(r.size-int64(rec.Blocks))
			default:
				// Cold access; occasionally starts a sequential run.
				rec.Op = core.Write
				if rng.Float64() < cfg.ReadFraction {
					rec.Op = core.Read
				}
				rec.Blocks = 8 + 8*rng.Intn(3)
				rec.LBN = rng.Int63n(cfg.Capacity - 4096)
				if rec.Op == core.Read && rng.Float64() < 0.10 {
					seqRun = 8 + rng.Intn(40)
					seqNext = rec.LBN + int64(rec.Blocks)
				}
			}
			t.Records = append(t.Records, rec)
			emitted++
		}
		// Idle gap between bursts; tuned so overall rate ≈ MeanRate:
		// a burst of mean 16 requests spans ~16·burstGap; idle adds the
		// remaining 3/4 of the period.
		now += rng.ExpFloat64() * 16 * burstGapMs * 3
	}
	return t
}

// TPCCConfig parameterizes the synthetic TPC-C-like trace. The paper's
// TPC-C trace came from a 1 GB SQL Server database striped over two
// drives; the property the paper highlights (§4.3) is "many
// concurrently-pending requests with very small inter-LBN distances":
// bursts of page accesses landing close together in hot tables, which
// LBN-based schedulers cannot order well but SPTF can.
type TPCCConfig struct {
	// Capacity and SectorSize describe the target device.
	Capacity   int64
	SectorSize int
	// Count is the number of requests.
	Count int
	// MeanRate is the average arrival rate, requests/s.
	MeanRate float64
	// DatabaseBytes is the size of the database extent (1 GB).
	DatabaseBytes int64
	// PageBytes is the database page size (8 KB).
	PageBytes int
	// Tables is the number of table extents within the database.
	Tables int
	// ReadFraction is the probability of a read (0.55: OLTP mixes
	// reads with update writes and log appends).
	ReadFraction float64
	// Seed makes the trace reproducible.
	Seed int64
}

// DefaultTPCC returns the configuration used by the Fig. 7 reproduction.
func DefaultTPCC(capacity int64, count int) TPCCConfig {
	dbBytes := int64(1) << 30
	if max := capacity * 512 / 2; dbBytes > max {
		dbBytes = max
	}
	return TPCCConfig{
		Capacity:      capacity,
		SectorSize:    512,
		Count:         count,
		MeanRate:      120,
		DatabaseBytes: dbBytes,
		PageBytes:     8192,
		Tables:        9, // TPC-C's table count
		ReadFraction:  0.55,
		Seed:          1999,
	}
}

// GenerateTPCC builds the synthetic TPC-C-like trace.
func GenerateTPCC(cfg TPCCConfig) *Trace {
	if cfg.Capacity <= 0 || cfg.Count <= 0 || cfg.MeanRate <= 0 || cfg.Tables <= 0 ||
		cfg.PageBytes < cfg.SectorSize || cfg.DatabaseBytes <= 0 {
		panic(fmt.Sprintf("trace: invalid tpcc config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Trace{Name: "tpcc-synthetic"}

	pageBlocks := cfg.PageBytes / cfg.SectorSize
	dbBlocks := cfg.DatabaseBytes / int64(cfg.SectorSize)
	if dbBlocks > cfg.Capacity*3/4 {
		dbBlocks = cfg.Capacity * 3 / 4
	}
	// The database occupies one extent; the log occupies a separate
	// extent after it.
	dbStart := int64(0)
	logStart := dbBlocks
	logSize := cfg.Capacity / 16
	if logStart+logSize > cfg.Capacity {
		logSize = cfg.Capacity - logStart
	}

	// Tables split the database extent; popularity is skewed (the stock
	// and order-line tables absorb most traffic). Within a table, a hot
	// window of recently-touched pages moves slowly, creating the
	// near-by concurrent requests the paper describes.
	type table struct {
		start, blocks int64
		weight        float64
		hot           int64 // hot window center
	}
	tables := make([]table, cfg.Tables)
	per := dbBlocks / int64(cfg.Tables)
	cum := 0.0
	for i := range tables {
		w := 1.0 / float64(i+1) // Zipf-ish popularity
		cum += w
		tables[i] = table{start: int64(i) * per, blocks: per, weight: w, hot: rng.Int63n(per)}
	}

	now := 0.0
	var logNext int64
	meanGap := 1000.0 / cfg.MeanRate
	for emitted := 0; emitted < cfg.Count; {
		// Transactions arrive in bursts of page accesses (a new-order
		// transaction touches ~10 pages nearly at once), concentrated on
		// one table's hot window — this is what produces the paper's
		// "many concurrently-pending requests with very small inter-LBN
		// distances" (§4.3).
		now += rng.ExpFloat64() * meanGap * 8
		x := rng.Float64() * cum
		ti := 0
		for acc := 0.0; ti < len(tables)-1; ti++ {
			acc += tables[ti].weight
			if x < acc {
				break
			}
		}
		tb := &tables[ti]
		burst := 4 + rng.Intn(12)
		for b := 0; b < burst && emitted < cfg.Count; b++ {
			now += rng.ExpFloat64() * meanGap / 4
			rec := Record{TimeMs: now}
			if rng.Float64() < 0.15 {
				// Log append: sequential writes in the log extent.
				rec.Op = core.Write
				rec.Blocks = pageBlocks
				rec.LBN = logStart + logNext
				logNext += int64(pageBlocks)
				if logNext+int64(pageBlocks) >= logSize {
					logNext = 0 // log wraps
				}
			} else {
				// Page access near the transaction table's hot window:
				// 85% within a ±1 MB window, the rest anywhere in the
				// table.
				var off int64
				if rng.Float64() < 0.85 {
					span := int64(128 * pageBlocks) // ±1 MB window
					off = tb.hot + rng.Int63n(2*span+1) - span
				} else {
					off = rng.Int63n(tb.blocks)
				}
				off -= off % int64(pageBlocks)
				if off < 0 {
					off = 0
				}
				if off+int64(pageBlocks) > tb.blocks {
					off = tb.blocks - int64(pageBlocks)
					off -= off % int64(pageBlocks)
				}
				rec.Op = core.Write
				if rng.Float64() < cfg.ReadFraction {
					rec.Op = core.Read
				}
				rec.Blocks = pageBlocks
				rec.LBN = dbStart + tb.start + off
				// Drift the hot window occasionally.
				if rng.Float64() < 0.02 {
					tb.hot = rng.Int63n(tb.blocks)
				}
			}
			t.Records = append(t.Records, rec)
			emitted++
		}
	}
	t.sortByTime()
	return t
}
