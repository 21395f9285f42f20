//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// childArgs are the settings -all and -aa hand down to each run.
type childArgs struct {
	seconds float64
	trace   int
	quick   bool
	outDir  string
}

// runChild runs one workload in a fresh process of this same binary, so
// peak_rss_mb and set-up are each run's own. The child's output passes
// through; its last line is parsed.
func runChild(c childArgs, workload string, seed uint64) (reported, error) {
	exe, err := os.Executable()
	if err != nil {
		return reported{}, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(c.trace),
		"-out", c.outDir,
	}
	if c.quick {
		args = append(args, "-quick")
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep reported
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		if runErr != nil {
			return rep, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return rep, fmt.Errorf("%s seed %d: no result line: %w", workload, seed, err)
	}
	if runErr != nil || !rep.Correct {
		return rep, fmt.Errorf("%s seed %d: run incorrect (attempted %d, failed %d)", workload, seed, rep.Attempted, rep.Failed)
	}
	return rep, nil
}

// runAll runs every workload once and returns the exit code.
func runAll(c childArgs, seed uint64) int {
	code := 0
	for _, w := range workloadNames {
		if _, err := runChild(c, w, seed); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			code = 1
		}
	}
	return code
}

// benchmarkFile is the part of BENCHMARK.json the A/A check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA is the A/A check: the full set twice, the second time in reverse
// order, reps runs per workload and set with seeds seed, seed+1, …. It
// prints, per workload and end-to-end metric, both medians, how far the
// second is from the first as a share of it, the metric's bound, and each
// set's quartile spread; a second set worse than the first by more than the
// bound is a breach. On a host with regimes that outlast a run, one run a
// side (the default) is a smoke test; -reps 10 is the acceptance check.
func runAA(c childArgs, seed uint64, reps int) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -aa reads the bounds from BENCHMARK.json in the current directory: %v\n", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: BENCHMARK.json: %v\n", err)
		return 2
	}
	c.trace = 0
	reps = max(reps, 1)
	// values[set][workload][metric] holds one value per rep.
	var values [2]map[string]map[string][]float64
	code := 0
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		order := slices.Clone(workloadNames)
		if set == 1 {
			slices.Reverse(order)
		}
		for rep := 0; rep < reps; rep++ {
			for _, w := range order {
				r, err := runChild(c, w, seed+uint64(rep))
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
					code = 1
					continue
				}
				if values[set][w] == nil {
					values[set][w] = map[string][]float64{}
				}
				for name, v := range r.Metrics {
					values[set][w][name] = append(values[set][w][name], v.Value)
				}
			}
		}
	}
	fmt.Printf("\nA/A: two sets of %d run(s) per workload, second set in reverse order\n", reps)
	fmt.Printf("%-15s %-16s %14s %14s %8s %7s %8s %8s\n",
		"workload", "metric", "median A", "median B", "diff", "bound", "spreadA", "spreadB")
	for _, w := range workloadNames {
		for _, m := range bf.EndToEnd {
			a, b := values[0][w][m.Name], values[1][w][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			diff := 0.0
			if ma != 0 {
				diff = (mb - ma) / ma
			}
			worse := diff
			if m.Better == "higher" {
				worse = -diff
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  BREACH"
				code = 1
			}
			fmt.Printf("%-15s %-16s %14.4f %14.4f %+7.2f%% %6.1f%% %7.2f%% %7.2f%%%s\n",
				w, m.Name, ma, mb, 100*diff, 100*m.Bound, 100*spread(a), 100*spread(b), verdict)
		}
	}
	return code
}
