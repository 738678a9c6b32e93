package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// repeatMain runs every named workload n times, repetition i with seed
// seed+i in a fresh child process (so each has its own peak RSS and
// cold caches), reversing the workload order on odd repetitions so no
// workload always follows the same neighbour. It prints each metric's
// median, quartiles and spread (IQR over median, quartiles as Python's
// statistics.quantiles computes them) and returns the exit code: 1 if
// any child failed or reported incorrect output.
func repeatMain(names []string, n int, seed int64, childFlags []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	for _, name := range names {
		if _, ok := lookupWorkload(name); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
	}
	values := map[string]map[string][]float64{}
	bad := 0
	for i := 0; i < n; i++ {
		order := append([]string(nil), names...)
		if i%2 == 1 {
			for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
				order[l], order[r] = order[r], order[l]
			}
		}
		for _, name := range order {
			args := append([]string{"-workload", name, "-seed", fmt.Sprint(seed + int64(i))}, childFlags...)
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			t := time.Now()
			out, err := cmd.Output()
			took := time.Since(t).Seconds()
			var line summaryLine
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil || jerr != nil || !line.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: failed (%v)\n", name, seed+int64(i), err)
				bad++
				continue
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range line.Metrics {
				values[name][m] = append(values[name][m], v.Value)
			}
			fmt.Fprintf(os.Stderr, "bench: %s seed %d: %.1fs: %s\n", name, seed+int64(i), took, lines[len(lines)-1])
		}
	}
	var buf bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&buf, "\n%s\n%-36s %4s %12s %12s %12s %8s\n", name, "metric", "n", "median", "q1", "q3", "spread")
		metrics := make([]string, 0, len(values[name]))
		for m := range values[name] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			vs := values[name][m]
			q1, med, q3 := pyQuartiles(vs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Fprintf(&buf, "%-36s %4d %12.6g %12.6g %12.6g %7.2f%%\n", m, len(vs), med, q1, q3, 100*spread)
		}
	}
	os.Stdout.Write(buf.Bytes())
	if bad > 0 {
		fmt.Printf("\n%d runs failed\n", bad)
		return 1
	}
	return 0
}

// pyQuartiles matches Python's statistics.quantiles(xs, n=4) (the
// default exclusive method); with fewer than two values every quartile
// is the value itself.
func pyQuartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) < 2 {
		if len(d) == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := len(d) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
