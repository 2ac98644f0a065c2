package benchrec

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestCommittedProfilesRoundTrip pins the record format against the
// committed profiles: decoding one and encoding it again the way
// cmd/benchrun writes it gives back the same bytes, so no field is
// dropped, renamed or reformatted.
func TestCommittedProfilesRoundTrip(t *testing.T) {
	for _, path := range []string{"../../BENCH_10.json", "../../BENCH_15.json", "../../BENCH_18.json"} {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var f File
		if err := json.Unmarshal(want, &f); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(f.Benchmarks) == 0 {
			t.Fatalf("%s: no benchmarks decoded", path)
		}
		got, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got, '\n'); !bytes.Equal(got, want) {
			t.Errorf("%s: re-encoding changed the bytes (%d → %d)", path, len(want), len(got))
		}
	}
}
