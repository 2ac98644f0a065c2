package main

// expected.go pins each workload's result. A rep's fingerprint is the
// text rendering of everything it simulated (workloads.go); its sha256
// is the result hash. Seeds 1 and 2 have their fingerprints committed
// under expected/, seed 2 being held out for checking later claims; any
// other seed is checked only for determinism and trace neutrality. The
// path is relative to this directory, where run.sh runs the binary.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

var pinnedSeeds = []int64{1, 2}

type pinned struct {
	SHA256      string   `json:"sha256"`
	Fingerprint []string `json:"fingerprint"`
}

func hashLines(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// firstDiff describes the first line where got and want differ, or
// returns "" when they are equal.
func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("got %d lines, want %d", len(got), len(want))
	}
	return ""
}

// pin checks lines against the result pinned for key under seed, or
// with update re-pins it. It returns "pinned", "re-pinned" or
// "unchecked"; an error is a wrong or missing result, in one line.
func pin(seed int64, key string, lines []string, update bool) (string, error) {
	if !slices.Contains(pinnedSeeds, seed) {
		if update {
			return "", fmt.Errorf("-update pins only seeds %v", pinnedSeeds)
		}
		return "unchecked", nil
	}
	path := filepath.Join("expected", fmt.Sprintf("seed%d.json", seed))
	all := map[string]pinned{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &all); err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
	case !update || !errors.Is(err, fs.ErrNotExist):
		return "", err
	}
	if update {
		all[key] = pinned{SHA256: hashLines(lines), Fingerprint: lines}
		out, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			return "", err
		}
		return "re-pinned", nil
	}
	p, ok := all[key]
	if !ok {
		return "", fmt.Errorf("%s: no pinned result for %s; run with -update", path, key)
	}
	if got := hashLines(lines); got != p.SHA256 {
		return "", fmt.Errorf("%s seed %d: result sha256 %.12s, pinned %.12s: %s",
			key, seed, got, p.SHA256, firstDiff(lines, p.Fingerprint))
	}
	return "pinned", nil
}
