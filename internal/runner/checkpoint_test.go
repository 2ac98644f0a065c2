package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type ckState struct {
	Trial int     `json:"trial"`
	Sum   float64 `json:"sum"`
}

type ckParams struct {
	Trials int   `json:"trials"`
	Seed   int64 `json:"seed"`
}

func ckPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "state.ckpt")
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := ckPath(t)
	p := ckParams{Trials: 100, Seed: 42}
	ck, err := OpenCheckpoint(path, "mttdl", p)
	if err != nil {
		t.Fatal(err)
	}
	var missing ckState
	if ck.Load("job a", &missing) {
		t.Error("fresh checkpoint reported a saved entry")
	}
	if err := ck.Save("job a", ckState{Trial: 7, Sum: 3.5}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Save("job b", ckState{Trial: 2, Sum: 1.25}); err != nil {
		t.Fatal(err)
	}

	// Reopen under the same experiment and parameters: both entries
	// survive the file round-trip.
	ck2, err := OpenCheckpoint(path, "mttdl", p)
	if err != nil {
		t.Fatal(err)
	}
	var a, b ckState
	if !ck2.Load("job a", &a) || !ck2.Load("job b", &b) {
		t.Fatal("reopened checkpoint lost entries")
	}
	if a != (ckState{Trial: 7, Sum: 3.5}) || b != (ckState{Trial: 2, Sum: 1.25}) {
		t.Errorf("reloaded states: a=%+v b=%+v", a, b)
	}
}

func TestCheckpointRejectsParameterMismatch(t *testing.T) {
	path := ckPath(t)
	if _, err := OpenCheckpoint(path, "mttdl", ckParams{Trials: 100, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	ck, _ := OpenCheckpoint(path, "mttdl", ckParams{Trials: 100, Seed: 42})
	if err := ck.Save("j", ckState{Trial: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := OpenCheckpoint(path, "mttdl", ckParams{Trials: 200, Seed: 42})
	if err == nil || !strings.Contains(err.Error(), "different parameters") {
		t.Fatalf("err = %v, want a parameter-binding refusal", err)
	}
}

func TestCheckpointRejectsWrongExperiment(t *testing.T) {
	path := ckPath(t)
	ck, err := OpenCheckpoint(path, "mttdl", ckParams{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Save("j", ckState{}); err != nil {
		t.Fatal(err)
	}
	_, err = OpenCheckpoint(path, "rebuild", ckParams{})
	if err == nil || !strings.Contains(err.Error(), `experiment "mttdl"`) {
		t.Fatalf("err = %v, want a wrong-experiment refusal", err)
	}
}

func TestCheckpointRejectsCorruptFile(t *testing.T) {
	path := ckPath(t)
	if err := os.WriteFile(path, []byte("not json{"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenCheckpoint(path, "mttdl", ckParams{})
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("err = %v, want a corruption error", err)
	}
	if !strings.Contains(err.Error(), "delete it to start over") {
		t.Errorf("err %q missing the recovery hint", err)
	}
}

func TestCheckpointUnreadableEntryCountsAsAbsent(t *testing.T) {
	path := ckPath(t)
	ck, err := OpenCheckpoint(path, "mttdl", ckParams{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Save("j", "a string, not a state object"); err != nil {
		t.Fatal(err)
	}
	var st ckState
	if ck.Load("j", &st) {
		t.Error("type-mismatched entry loaded as usable")
	}
}

func TestCheckpointConcurrentSaves(t *testing.T) {
	path := ckPath(t)
	ck, err := OpenCheckpoint(path, "mttdl", ckParams{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ck.Save(fmt.Sprintf("job %d", i), ckState{Trial: i}); err != nil {
				t.Errorf("save %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	ck2, err := OpenCheckpoint(path, "mttdl", ckParams{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var st ckState
		if !ck2.Load(fmt.Sprintf("job %d", i), &st) || st.Trial != i {
			t.Errorf("entry %d missing or wrong: %+v", i, st)
		}
	}
}

func TestCheckpointDeterministicBytes(t *testing.T) {
	// The file bytes are a pure function of the saved states, whatever
	// order the saves arrived in — the property resume byte-identity
	// tests lean on.
	write := func(labels []string) []byte {
		path := ckPath(t)
		ck, err := OpenCheckpoint(path, "mttdl", ckParams{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range labels {
			if err := ck.Save(l, ckState{Trial: len(l)}); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := write([]string{"x", "yy", "zzz"})
	b := write([]string{"zzz", "x", "yy"})
	if string(a) != string(b) {
		t.Error("identical saves produced different file bytes")
	}
}

// FuzzCheckpoint hands OpenCheckpoint arbitrary bytes as the saved file.
// A checkpoint on disk is untrusted input: whatever it holds, opening it
// yields a one-line error or a usable Checkpoint, never a panic. Usable
// means Load decides without panicking and Save publishes a file that
// reopens with the saved state.
func FuzzCheckpoint(f *testing.F) {
	p := ckParams{Trials: 100, Seed: 42}
	f.Add([]byte(`{"experiment":"mttdl","params":{"trials":100,"seed":42},"jobs":{"job a":{"trial":7,"sum":3.5}}}`))
	f.Add([]byte(`{"experiment":"mttdl","params":{"seed":42,"trials":100},"jobs":null}`))
	f.Add([]byte(`{"experiment":"mttdl","params":{"trials":100,"seed":42},"jobs":{"job a":"x"}}`))
	f.Add([]byte(`{"experiment":"mttdl","params":{"trials":1,"seed":42}}`))
	f.Add([]byte(`{"experiment":"fig5\n"}`))
	f.Add([]byte("garbage{"))
	f.Add([]byte("null"))
	f.Add([]byte(""))
	f.Add([]byte("\xff\xfe\n{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := ckPath(t)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := OpenCheckpoint(path, "mttdl", p)
		if err != nil {
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("error is not one line: %q", err)
			}
			return
		}
		var st ckState
		ck.Load("job a", &st)
		want := ckState{Trial: 3, Sum: 1.5}
		if err := ck.Save("job b", want); err != nil {
			t.Fatalf("saving into an accepted checkpoint: %v", err)
		}
		re, err := OpenCheckpoint(path, "mttdl", p)
		if err != nil {
			t.Fatalf("reopening a saved checkpoint: %v", err)
		}
		var got ckState
		if !re.Load("job b", &got) || got != want {
			t.Fatalf("reopened state = %+v, want %+v", got, want)
		}
	})
}
