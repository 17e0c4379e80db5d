package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// child runs this program again for one workload, in a process of its own so
// that no run inherits another's heap, page cache of answers or goroutines,
// and returns its result line. Its report is copied to echo.
func child(name string, seed int64, seconds float64, trace bool, echo io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, echo)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s (seed %d, trace %s): %w", name, seed, t, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", name, err)
	}
	return res, nil
}

// allMode runs every workload once untraced and once traced.
func allMode(seed int64, seconds float64) error {
	bad := 0
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := child(wl.name, seed, seconds, trace, os.Stdout)
			if err != nil {
				return err
			}
			if !res.Correct || res.Failed > 0 {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs had wrong answers or failed requests", bad)
	}
	fmt.Println("all workloads: every answer correct, no request failed")
	return nil
}

// quartiles returns the first, second and third quartile of vs the way
// Python's statistics.quantiles(vs, n=4) does (exclusive method), which is
// what the acceptance check uses.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), vs...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// repeatMode runs n full untraced sets, set r on seed+r as the acceptance
// check does, and prints per workload and end-to-end metric min / median /
// max and the quartile spread as a share of the median against the metric's
// bound. It fails when a spread exceeds its bound; setup_s is printed but
// exempt, as in the acceptance check.
func repeatMode(n int, seed int64, seconds float64) error {
	vals := map[string]map[string][]float64{}
	for r := 0; r < n; r++ {
		for _, wl := range workloads {
			res, err := child(wl.name, seed+int64(r), seconds, false, io.Discard)
			if err != nil {
				return err
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s (seed %d): correct=%v failed=%d of %d", wl.name, seed+int64(r), res.Correct, res.Failed, res.Attempted)
			}
			if vals[wl.name] == nil {
				vals[wl.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				vals[wl.name][name] = append(vals[wl.name][name], m.Value)
			}
			fmt.Printf("set %d/%d %s done\n", r+1, n, wl.name)
		}
	}
	fmt.Printf("\n%-14s %-13s %12s %12s %12s %9s %7s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	over := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			v := vals[wl.name][d.name]
			q1, q2, q3 := quartiles(v)
			spread := math.Abs(q3-q1) / q2
			verdict := ""
			switch {
			case d.name == "setup_s":
				verdict = " (exempt)"
			case spread > d.bound:
				verdict = " OVER"
				over++
			}
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			fmt.Printf("%-14s %-13s %12.6g %12.6g %12.6g %8.2f%% %6.0f%%%s\n",
				wl.name, d.name, sorted[0], q2, sorted[len(sorted)-1], 100*spread, 100*d.bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metrics spread wider than their bound", over)
	}
	return nil
}
