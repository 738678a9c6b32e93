// Package prof wires Go's runtime profilers into the CLI tools: the
// benchmark/pprof workflow that drove this repo's hot-path optimization
// (see DESIGN.md) should stay one flag away.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling to cpuPath (when non-empty) and returns a
// stop function that ends the CPU profile and, when memPath is
// non-empty, writes a heap profile after a forced GC. Callers should
// invoke stop on the normal exit path; error paths that os.Exit early
// lose the (partial) profiles, as with `go test -cpuprofile`.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("prof: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("prof: %w", err)
			}
			defer f.Close()
			runtime.GC() // materialize the final live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("prof: %w", err)
			}
		}
		return nil
	}, nil
}
