package runner

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteArtifact writes the file at path atomically; every command's
// output file goes through it. The render callback streams into a
// temporary file in the same directory, which replaces path in one
// rename only after the render and all writes succeed. An interrupted
// or failing render therefore never leaves a truncated file behind —
// the previous version of the file, if any, survives intact. A path
// that names a directory, or whose directory does not exist, fails
// before render is called, so a render that runs a simulation does no
// work for an output it cannot publish.
func WriteArtifact(path string, render func(w io.Writer) error) (err error) {
	if info, serr := os.Stat(path); serr == nil && info.IsDir() {
		return fmt.Errorf("artifact %s: is a directory", path)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("artifact %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = render(tmp); err != nil {
		return fmt.Errorf("artifact %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("artifact %s: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("artifact %s: %w", path, err)
	}
	return nil
}
