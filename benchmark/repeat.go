package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// result is the JSON line a run ends with.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runRepeat runs the workload n times untraced and n times traced, each
// in its own process with seeds seed..seed+n-1, and prints every
// metric's quartiles and spread, and the tracing overhead as the
// untraced median of ops_per_s over its traced median.
func runRepeat(workload string, seed uint64, seconds, n int, lockSpec, traceDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for trace := 0; trace <= 1; trace++ {
		for i := 0; i < n; i++ {
			s := seed + uint64(i)
			cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace),
				"--lock", lockSpec, "--trace-dir", traceDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
				return fmt.Errorf("run trace=%d seed=%d: %v (%v)", trace, s, err, jerr)
			}
			fmt.Printf("# run trace=%d seed=%d correct=%t attempted=%d failed=%d\n", trace, s, res.Correct, res.Attempted, res.Failed)
			if err != nil || !res.Correct {
				return fmt.Errorf("run trace=%d seed=%d failed: %v\n%s", trace, s, err, out)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-32s %14s %14s %14s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		fmt.Fprintf(&b, "%-32s %14.6g %14.6g %14.6g %7.2f%% %s\n", name, q1, med, q3, 100*(q3-q1)/med, units[name])
	}
	for _, name := range names {
		if base, ok := strings.CutPrefix(name, "trace."); ok && values[base] != nil {
			fmt.Fprintf(&b, "tracing overhead on %s: untraced median / traced median = %.4f\n",
				base, median(values[base])/median(values[name]))
		}
	}
	_, err = os.Stdout.Write(b.Bytes())
	return err
}
