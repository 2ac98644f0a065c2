package fault

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"memsim/internal/core"
)

// ticker charges 1 ms per access regardless of extent, making piece
// counts visible in the timing.
type ticker struct{ n int }

func (tk *ticker) Name() string    { return "ticker" }
func (tk *ticker) Capacity() int64 { return 10000 }
func (tk *ticker) SectorSize() int { return 512 }
func (tk *ticker) Reset()          {}
func (tk *ticker) Access(*core.Request, float64) float64 {
	tk.n++
	return 1
}
func (tk *ticker) EstimateAccess(*core.Request, float64) float64 { return 1 }

func TestSlipRemapNoDefectsPassThrough(t *testing.T) {
	tk := &ticker{}
	s := NewSlipRemap(tk)
	svc := s.Access(&core.Request{Op: core.Read, LBN: 0, Blocks: 100}, 0)
	if svc != 1 || tk.n != 1 {
		t.Errorf("clean extent should be one access: svc=%g n=%d", svc, tk.n)
	}
	if s.Remapped() != 0 {
		t.Error("unexpected remap entries")
	}
	if s.Name() != "ticker+slip" || s.Capacity() != 10000 || s.SectorSize() != 512 {
		t.Error("pass-through accessors wrong")
	}
}

func TestSlipRemapSplitsExtents(t *testing.T) {
	tk := &ticker{}
	s := NewSlipRemap(tk)
	s.Remap(10, 9000)
	s.Remap(20, 9001)
	// [0,30): healthy [0,10), slipped {10}, healthy [11,20), slipped
	// {20}, healthy [21,30) → five accesses.
	svc := s.Access(&core.Request{Op: core.Read, LBN: 0, Blocks: 30}, 0)
	if svc != 5 || tk.n != 5 {
		t.Errorf("expected 5 pieces: svc=%g n=%d", svc, tk.n)
	}
	if s.Remapped() != 2 {
		t.Errorf("remapped = %d", s.Remapped())
	}
}

func TestSlipRemapEdges(t *testing.T) {
	tk := &ticker{}
	s := NewSlipRemap(tk)
	s.Remap(0, 9000) // defect at the very start
	svc := s.Access(&core.Request{Op: core.Read, LBN: 0, Blocks: 10}, 0)
	if svc != 2 {
		t.Errorf("defect at extent start: %g pieces-ms, want 2", svc)
	}
	tk.n = 0
	s2 := NewSlipRemap(&ticker{})
	s2.Remap(9, 9000) // defect at the very end
	if svc := s2.Access(&core.Request{Op: core.Read, LBN: 0, Blocks: 10}, 0); svc != 2 {
		t.Errorf("defect at extent end: %g, want 2", svc)
	}
	// Single-sector request on a defect goes straight to the spare.
	s3 := NewSlipRemap(&ticker{})
	s3.Remap(5, 9000)
	if svc := s3.Access(&core.Request{Op: core.Read, LBN: 5, Blocks: 1}, 0); svc != 1 {
		t.Errorf("defect-only request: %g, want 1", svc)
	}
}

func TestSlipRemapPanicsOutOfRange(t *testing.T) {
	s := NewSlipRemap(&ticker{})
	for _, f := range []func(){
		func() { s.Remap(-1, 0) },
		func() { s.Remap(0, 10000) },
		func() { s.Remap(10000, 0) },
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

func TestSlipRemapEstimateSinglePieceExact(t *testing.T) {
	tk := &ticker{}
	s := NewSlipRemap(tk)
	if est := s.EstimateAccess(&core.Request{Op: core.Read, LBN: 0, Blocks: 8}, 0); est != 1 {
		t.Errorf("estimate = %g", est)
	}
	if tk.n != 0 {
		t.Error("estimate accessed the device")
	}
	s.Remap(4, 9000)
	if est := s.EstimateAccess(&core.Request{Op: core.Read, LBN: 0, Blocks: 8}, 0); est != 1 {
		t.Errorf("multi-piece estimate (lower bound) = %g", est)
	}
}

// recorder logs every inner access and estimate SlipRemap makes, so a
// test can check where each piece goes, not only how many there are.
type recorder struct{ accessed, estimated []core.Request }

func (r *recorder) Name() string    { return "recorder" }
func (r *recorder) Capacity() int64 { return 1 << 20 }
func (r *recorder) SectorSize() int { return 512 }
func (r *recorder) Reset()          {}
func (r *recorder) Access(req *core.Request, _ float64) float64 {
	r.accessed = append(r.accessed, core.Request{LBN: req.LBN, Blocks: req.Blocks, Op: req.Op})
	return 1
}
func (r *recorder) EstimateAccess(req *core.Request, _ float64) float64 {
	r.estimated = append(r.estimated, core.Request{LBN: req.LBN, Blocks: req.Blocks, Op: req.Op})
	return 1
}

// referencePieces splits req sector by sector against table (the last
// Remap of each sector): each remapped sector is its own one-block
// piece at its target, and each maximal healthy run is one piece. An
// extent with no sectors is one empty piece.
func referencePieces(table map[int64]int64, req core.Request) []core.Request {
	var out []core.Request
	run := false // out's last piece is a healthy run ending just before lbn
	for lbn := req.LBN; lbn < req.LBN+int64(req.Blocks); lbn++ {
		to, slipped := table[lbn]
		switch {
		case slipped:
			out = append(out, core.Request{LBN: to, Blocks: 1, Op: req.Op})
		case run:
			out[len(out)-1].Blocks++
		default:
			out = append(out, core.Request{LBN: lbn, Blocks: 1, Op: req.Op})
		}
		run = !slipped
	}
	if out == nil {
		out = append(out, core.Request{LBN: req.LBN, Blocks: req.Blocks, Op: req.Op})
	}
	return out
}

// checkPieces accesses and estimates req through s and compares the
// inner requests with the reference split.
func checkPieces(t *testing.T, s *SlipRemap, rec *recorder, table map[int64]int64, req core.Request) {
	t.Helper()
	rec.accessed, rec.estimated = rec.accessed[:0], rec.estimated[:0]
	want := referencePieces(table, req)
	if svc := s.Access(&req, 0); svc != float64(len(want)) {
		t.Errorf("%+v: Access charged %g pieces, want %d", req, svc, len(want))
	}
	if !slices.Equal(rec.accessed, want) {
		t.Fatalf("%+v: accessed %v, want %v", req, rec.accessed, want)
	}
	s.EstimateAccess(&req, 0)
	if !slices.Equal(rec.estimated, want[:1]) {
		t.Fatalf("%+v: estimated %v, want the first piece %v", req, rec.estimated, want[:1])
	}
	if s.Remapped() != len(table) {
		t.Fatalf("Remapped() = %d, want %d", s.Remapped(), len(table))
	}
}

func TestSlipRemapPiecesMatchReference(t *testing.T) {
	type remap struct{ from, to int64 }
	cases := []struct {
		name   string
		remaps []remap
		req    core.Request
	}{
		{"empty table", nil, core.Request{Op: core.Write, LBN: 40, Blocks: 16}},
		{"empty extent", []remap{{5, 900}}, core.Request{LBN: 5, Blocks: 0}},
		{"first sector", []remap{{40, 900}}, core.Request{LBN: 40, Blocks: 16}},
		{"last sector", []remap{{55, 900}}, core.Request{LBN: 40, Blocks: 16}},
		{"just outside", []remap{{39, 900}, {56, 901}}, core.Request{LBN: 40, Blocks: 16}},
		{"every sector", []remap{{42, 902}, {40, 900}, {41, 901}}, core.Request{LBN: 40, Blocks: 3}},
		{"last write wins", []remap{{45, 900}, {50, 901}, {45, 902}, {45, 903}}, core.Request{Op: core.Write, LBN: 40, Blocks: 16}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := &recorder{}
			s := NewSlipRemap(rec)
			table := map[int64]int64{}
			for _, r := range c.remaps {
				s.Remap(r.from, r.to)
				table[r.from] = r.to
			}
			checkPieces(t, s, rec, table, c.req)
		})
	}
}

func TestSlipRemapPiecesRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		rec := &recorder{}
		s := NewSlipRemap(rec)
		table := map[int64]int64{}
		// Sectors drawn from a narrow range, so tables hold runs of
		// adjacent defects and repeated Remaps of one sector; a Remap
		// after an Access must re-sort the table.
		span := int64(1 + rng.Intn(300))
		for round := 0; round < 4; round++ {
			for n := rng.Intn(40); n > 0; n-- {
				from, to := rng.Int63n(span), (1<<19)+rng.Int63n(1<<19)
				s.Remap(from, to)
				table[from] = to
			}
			for n := 0; n < 5; n++ {
				req := core.Request{Op: core.Op(rng.Intn(2)), LBN: rng.Int63n(span + 20), Blocks: rng.Intn(64)}
				checkPieces(t, s, rec, table, req)
			}
		}
	}
}

// FuzzSlipRemapPieces checks the split's contract for arbitrary tables
// and extents: the pieces cover the extent in order, each healthy sector
// exactly once, and each remapped sector at its latest target. Remap
// entries are four bytes each (a sector near the extent, and a target),
// and the table is accessed once midway so later Remaps must re-sort it.
func FuzzSlipRemapPieces(f *testing.F) {
	f.Add(uint16(100), uint16(64), []byte{})
	f.Add(uint16(0), uint16(1), []byte{1, 0, 7, 0})
	f.Add(uint16(100), uint16(8), []byte{0, 0, 1, 0, 9, 0, 2, 0, 3, 0, 3, 0, 3, 0, 4, 0})
	f.Add(uint16(65535), uint16(0), []byte{5, 1, 9, 9})
	f.Fuzz(func(t *testing.T, lbn, blocks uint16, entries []byte) {
		rec := &recorder{}
		s := NewSlipRemap(rec)
		req := core.Request{Op: core.Read, LBN: int64(lbn), Blocks: int(blocks % 2048)}
		end := req.LBN + int64(req.Blocks)
		table := map[int64]int64{}
		for i := 0; i+4 <= len(entries); i += 4 {
			// from ∈ [lbn-1, end]: inside the extent or just outside it.
			from := max(req.LBN-1+int64(binary.LittleEndian.Uint16(entries[i:]))%int64(req.Blocks+2), 0)
			to := 1<<19 + int64(binary.LittleEndian.Uint16(entries[i+2:]))
			s.Remap(from, to)
			table[from] = to
			if i == len(entries)/8*4 {
				s.Access(&req, 0)
			}
		}
		rec.accessed = rec.accessed[:0]
		s.Access(&req, 0)
		if req.Blocks == 0 {
			if want := []core.Request{{LBN: req.LBN}}; !slices.Equal(rec.accessed, want) {
				t.Fatalf("empty extent: accessed %v, want %v", rec.accessed, want)
			}
			return
		}
		cur := req.LBN
		for _, p := range rec.accessed {
			if to, ok := table[cur]; ok {
				if p.LBN != to || p.Blocks != 1 {
					t.Fatalf("sector %d: piece %+v, want its target %d", cur, p, to)
				}
				cur++
				continue
			}
			if p.LBN != cur || p.Blocks < 1 {
				t.Fatalf("sector %d: piece %+v does not start there", cur, p)
			}
			for lbn := p.LBN; lbn < p.LBN+int64(p.Blocks); lbn++ {
				if _, ok := table[lbn]; ok {
					t.Fatalf("piece %+v covers remapped sector %d", p, lbn)
				}
			}
			cur += int64(p.Blocks)
		}
		if cur != end {
			t.Fatalf("pieces %v cover [%d, %d), want [%d, %d)", rec.accessed, req.LBN, cur, req.LBN, end)
		}
	})
}
